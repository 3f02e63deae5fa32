//! `sessionbench`: the benchmark of the GauRast session hot path.
//!
//! ```text
//! cargo run --release --offline --manifest-path sessionbench/Cargo.toml -- \
//!     --workload <occluded|shallow|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` times the public entry points (`Engine::render_frame`,
//! `RenderService::render_batch`) and prints the end-to-end metrics;
//! `--trace 1` interleaves those calls with a traced replay of the same
//! frames and prints the per-layer metrics. Every output is checked; the
//! last line of standard output is the result JSON, and the exit code is
//! non-zero when a correctness check or workload-character guard fails.
//! See `README.md` for the workloads and the layer → metric map.

mod alloc;
mod check;
mod layers;
mod replay;
mod serve;
mod session;
mod stats;
mod trace;

use std::process::ExitCode;

#[global_allocator]
static ALLOC: alloc::CountingAllocator = alloc::CountingAllocator;

/// Set-ups per run; `setup_s` is their median, and their warm-up frames
/// must agree exactly.
pub const SETUPS: usize = 3;

const USAGE: &str =
    "usage: sessionbench --workload <occluded|shallow|serve> --seed <n> --seconds <s> --trace <0|1>";

#[derive(Clone, Copy, Debug)]
enum Workload {
    Occluded,
    Shallow,
    Serve,
}

#[derive(Debug)]
pub struct Args {
    workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |_| format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(match value.as_str() {
                        "occluded" => Workload::Occluded,
                        "shallow" => Workload::Shallow,
                        "serve" => Workload::Serve,
                        _ => return Err(format!("unknown workload {value:?}")),
                    });
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
                "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                    });
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        })
    }
}

/// An independent 64-bit stream of the benchmark seed (SplitMix64).
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The orbit's start angle in `[0, τ)`, from the seed.
pub fn start_angle(seed: u64) -> f32 {
    (derive_seed(seed, u64::MAX) >> 40) as f32 / (1u64 << 24) as f32 * std::f32::consts::TAU
}

/// Facts that make a number from another host comparable.
pub fn host_facts(args: &Args) -> Vec<(&'static str, String)> {
    let cores = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    vec![
        ("available_parallelism", cores.to_string()),
        (
            "simd_level",
            format!("{:?}", gaurast_render::VectorMode::Auto.resolve()),
        ),
        ("seed", args.seed.to_string()),
        ("run_seconds", args.seconds.to_string()),
    ]
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (name, outcome) = match args.workload {
        Workload::Occluded => ("occluded", session::run(&session::OCCLUDED, &args)),
        Workload::Shallow => ("shallow", session::run(&session::SHALLOW, &args)),
        Workload::Serve => ("serve", serve::run(&args)),
    };
    outcome.print(name, args.trace);
    if outcome.ledger.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
