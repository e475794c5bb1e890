//! `polap` — the perspective-olap shell.
//!
//! ```sh
//! polap [running|retail|workforce|bench] [--threads N] [--cache MB]
//!       [--budget CELLS]
//! polap --connect host:port      # client for a running olap-server
//! ```

use polap_cli::proto::{Client, STATUS_OK, STATUS_QUIT};
use polap_cli::{help, Dataset, Outcome, Session, SharedData};
use std::io::{BufRead, Write};
use std::sync::Arc;

const USAGE: &str = "usage: polap [running|retail|workforce|bench] [--threads N] \
                     [--cache MB] [--budget CELLS] | polap --connect HOST:PORT";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut dataset_arg: Option<String> = None;
    let mut opts = whatif_core::ExecOpts::default();
    let mut cache_mb = 0usize;
    // Executor flags given, for rejecting them in client mode.
    let (mut threads_given, mut budget_given) = (false, false);
    let mut connect: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--cache" => {
                i += 1;
                cache_mb = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--cache needs a size in MiB (0 = off)");
                    std::process::exit(2);
                });
            }
            "--threads" => {
                i += 1;
                threads_given = true;
                opts.threads = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| {
                        eprintln!("--threads needs a positive integer");
                        std::process::exit(2);
                    });
            }
            "--budget" => {
                i += 1;
                budget_given = true;
                opts.budget_cells = args.get(i).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--budget needs a cell count (0 = unlimited)");
                    std::process::exit(2);
                });
            }
            "--connect" => {
                i += 1;
                connect = Some(args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--connect needs HOST:PORT");
                    std::process::exit(2);
                }));
            }
            other if dataset_arg.is_none() => dataset_arg = Some(other.to_string()),
            other => {
                eprintln!("unexpected argument {other:?}");
                eprintln!("{USAGE}");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    if let Some(addr) = connect {
        if dataset_arg.is_some() || cache_mb > 0 {
            eprintln!("--connect runs against a server; dataset/--cache are chosen server-side");
            std::process::exit(2);
        }
        if threads_given {
            eprintln!("--connect runs against a server; set threads with olap-server --threads N");
            std::process::exit(2);
        }
        if budget_given {
            eprintln!(
                "--connect runs against a server; set the budget in the session with .budget N"
            );
            std::process::exit(2);
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
    shared.set_cache_mb(cache_mb);
    let mut session = Session::attach(Arc::new(shared)).with_opts(opts);
    println!("{}\n", help());
    repl(|line| match session.handle(line) {
        Outcome::Continue(text) | Outcome::Deadline(text) => (text, false),
        Outcome::Quit(text) => (text, true),
    });
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
