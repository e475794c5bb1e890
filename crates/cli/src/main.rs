//! `polap` — the perspective-olap shell.
//!
//! ```sh
//! polap [running|retail|workforce|bench] [--cache MB] [--budget CELLS]
//! polap --connect host:port      # client for a running olap-server
//! ```

use polap_cli::proto::{Client, STATUS_OK, STATUS_QUIT};
use polap_cli::{help, Dataset, Outcome, Session, SharedData};
use std::io::{BufRead, Write};
use std::sync::Arc;

const USAGE: &str = "usage: polap [running|retail|workforce|bench] [--cache MB] \
                     [--budget CELLS] | polap --connect HOST:PORT";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut dataset_arg: Option<String> = None;
    // `None` until given, so client mode can refuse any value.
    let (mut cache_mb, mut budget_cells): (Option<usize>, Option<u64>) = (None, None);
    let mut connect: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--cache" => {
                i += 1;
                cache_mb = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage_error("--cache needs a size in MiB (0 = off)")),
                );
            }
            "--budget" => {
                i += 1;
                budget_cells =
                    Some(args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                        usage_error("--budget needs a cell count (0 = unlimited)")
                    }));
            }
            "--connect" => {
                i += 1;
                connect = Some(
                    (args.get(i).cloned())
                        .unwrap_or_else(|| usage_error("--connect needs HOST:PORT")),
                );
            }
            flag if flag.starts_with("--") => usage_error(&format!("unknown flag {flag:?}")),
            other if dataset_arg.is_none() => dataset_arg = Some(other.to_string()),
            other => usage_error(&format!("unexpected argument {other:?}")),
        }
        i += 1;
    }

    if let Some(addr) = connect {
        if dataset_arg.is_some() || cache_mb.is_some() {
            usage_error("--connect runs against a server; dataset/--cache are chosen server-side");
        }
        if budget_cells.is_some() {
            usage_error(
                "--connect runs against a server; set the budget in the session with .budget N",
            );
        }
        run_client(&addr);
        return;
    }

    let arg = dataset_arg.unwrap_or_else(|| "running".to_string());
    let Some(dataset) = Dataset::parse(&arg) else {
        eprintln!("unknown dataset {arg:?}; expected running, retail, workforce or bench");
        std::process::exit(2);
    };
    eprintln!("loading {dataset:?} dataset…");
    let mut shared = SharedData::load(dataset);
    shared.set_cache_mb(cache_mb.unwrap_or(0));
    let mut session = Session::attach(Arc::new(shared)).with_budget(budget_cells.unwrap_or(0));
    println!("{}\n", help());
    repl(|line| match session.handle(line) {
        Outcome::Continue(text) | Outcome::Deadline(text) => (text, false),
        Outcome::Quit(text) => (text, true),
    });
}

/// Reports a command-line mistake with the usage line and exits 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}\n{USAGE}");
    std::process::exit(2);
}

/// Client mode: same prompt loop, but every line goes to the server.
fn run_client(addr: &str) {
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot connect to {addr}: {e}");
            std::process::exit(1);
        }
    };
    eprintln!("connected to {addr}");
    repl(|line| {
        if line.trim().is_empty() {
            return (String::new(), false);
        }
        match client.request(line.trim()) {
            Ok((STATUS_OK, text)) => (text, false),
            Ok((STATUS_QUIT, text)) => (text, true),
            // `-` no longer always closes the connection (a deadline
            // abort keeps the session alive); print and keep going — a
            // truly fatal `-` surfaces as a lost connection next line.
            Ok((_, text)) => (format!("server error: {text}"), false),
            Err(e) => (format!("connection lost: {e}"), true),
        }
    });
}

/// The shared prompt loop: feeds lines to `step` until it signals quit.
fn repl(mut step: impl FnMut(&str) -> (String, bool)) {
    let stdin = std::io::stdin();
    let mut out = std::io::stdout();
    loop {
        print!("polap> ");
        out.flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                break;
            }
        }
        let (text, quit) = step(&line);
        if !text.is_empty() {
            println!("{text}");
        }
        if quit {
            break;
        }
    }
}
