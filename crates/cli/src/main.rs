//! `smc` — command-line front end to the characterization framework.
//!
//! `smc help` prints every subcommand with its flags (`commands::USAGE`);
//! each subcommand accepts exactly the flags listed there.
//!
//! Files use the litmus notation of `smc-history` (`p: w(x)1 r(y)0`; see
//! the README). Exit status is nonzero when a suite expectation fails or
//! a requested verdict is `Disallowed`.

use std::process::ExitCode;

mod args;
mod commands;
mod json;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match commands::run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{}", commands::usage_for(args.first().map(String::as_str)));
            ExitCode::from(2)
        }
    }
}
