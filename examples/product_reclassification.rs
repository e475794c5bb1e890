//! Positive scenarios on the retail catalog: hypothetically re-bundle
//! products across families (the paper's Section 3.4 / Fig. 5 example)
//! and compare family margins under visual evaluation.
//!
//! ```sh
//! cargo run --example product_reclassification
//! ```

use olap_mdx::{execute, QueryContext};
use olap_workload::retail_example;

fn main() {
    let r = retail_example(42);
    println!("retail catalog: {:?}", r.schema.dim(r.product).leaf_names());

    let ctx = QueryContext::new(&r.cube);

    // Actual family margins per quarter-ish sample months.
    let actual = execute(
        &ctx,
        "SELECT {Time.[Jan], Time.[Jun], Time.[Dec]} ON COLUMNS, \
         {Product.[100], Product.[200], Product.[300]} ON ROWS \
         FROM [Retail] WHERE (Measures.[Margin], Market.[East])",
    )
    .expect("actual");
    println!("\nactual family margins (East):\n{actual}");

    // The paper's Section 4.2 example, as a WITH CHANGES query: products
    // rotate families in April. (1002: 100→200, 2001: 200→300,
    // 3001: 300→100.)
    let whatif = execute(
        &ctx,
        "WITH CHANGES {([100].[1002], [100], [200], Apr), \
                       ([200].[2001], [200], [300], Apr), \
                       ([300].[3001], [300], [100], Apr)} VISUAL \
         SELECT {Time.[Jan], Time.[Jun], Time.[Dec]} ON COLUMNS, \
         {Product.[100], Product.[200], Product.[300]} ON ROWS \
         FROM [Retail] WHERE (Measures.[Margin], Market.[East])",
    )
    .expect("what-if");
    println!("family margins if the April re-bundle had happened (visual):\n{whatif}");
}
