//! `exp <name>… | all [--quick]` — regenerate the paper's tables and
//! figures by name (see `mpdash_bench::experiments::ALL`), or the whole
//! evaluation in sequence. Pipe `exp all` to a file to archive a
//! complete results snapshot.
use mpdash_bench::{cli, experiments};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match cli::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            let names: Vec<&str> = experiments::ALL.iter().map(|e| e.name).collect();
            eprintln!("error: {e}");
            eprintln!("usage: exp <name>... | all [--quick]");
            eprintln!("experiments: {}", names.join(" "));
            return ExitCode::from(2);
        }
    };
    let workers = match mpdash_sim::default_workers() {
        Ok(n) => n,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let dir = mpdash_results::artifact_dir();
    let mut code = ExitCode::SUCCESS;
    for experiment in args.experiments {
        if let Err(e) = experiments::run(experiment, args.quick, workers, &dir) {
            eprintln!("{e}");
            code = ExitCode::FAILURE;
        }
    }
    code
}
