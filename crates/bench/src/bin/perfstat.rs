//! Perf-regression baseline recorder.
//!
//! Times each figure sweep serially and on the parallel sweep engine,
//! prints a table, and writes the snapshot to the next free
//! `BENCH_<n>.json` in the output directory:
//!
//! ```text
//! cargo run -p gex-bench --release --bin perfstat -- [test|bench|paper] \
//!     [--samples N] [--out DIR] [--threads N[,N,...]] [--max-cycles N]
//! ```
//!
//! Defaults: `test` preset, 3 samples, output to the current directory.
//! Each group is timed on a serial column (one worker, the
//! thread-count-independent basis `benchdiff` falls back to) and once per
//! worker count in `--threads` (else `GEX_SMS` / `GEX_THREADS` / the
//! machine's parallelism). A comma list (`--threads 1,2,4,8`) sweeps
//! several counts in one run: the first is the primary threaded column,
//! and every count is recorded as a `t<n>_ms`/`t<n>_speedup` scaling
//! column that `benchdiff`'s `GEX_BENCHDIFF_SCALING_MIN` gate reads. The
//! result cache is switched off before anything is timed (a hit would
//! time a map lookup, not the simulator), and the snapshot header records
//! that setting and the host core count, so a scaling gate can tell
//! "threading regressed" from "this box has one core".

use gex_bench::{perfstat, sms_from_env, BenchArgs};

fn main() {
    let args = BenchArgs::parse();
    args.apply_max_cycles();
    gex::cache::set_enabled(false);
    // perfstat is a smoke/baseline tool, so unlike the `fig` binary it
    // defaults to the Test preset.
    let preset = if args.positional.is_empty() {
        gex::workloads::Preset::Test
    } else {
        args.preset()
    };
    let samples = args.samples.unwrap_or(3).max(1);
    let out_dir = std::path::PathBuf::from(args.out.as_deref().unwrap_or("."));
    let sms = sms_from_env();
    // Worker counts for the threaded columns: the flag's list wins (0
    // entries resolve to the ambient count), otherwise one ambient-count
    // column (GEX_THREADS / machine parallelism).
    let threads: Vec<usize> = if args.threads_list.is_empty() {
        vec![gex_exec::threads()]
    } else {
        args.threads_list
            .iter()
            .map(|&t| if t == 0 { gex_exec::threads() } else { t })
            .collect()
    };

    println!(
        "perfstat: preset={preset:?} sms={sms} samples={samples} threads={threads:?} \
         host_cores={} sim_cache={}",
        perfstat::host_cores(),
        gex::cache::enabled(),
    );
    let groups = perfstat::standard_groups(preset);
    let mut stats = Vec::with_capacity(groups.len());
    for g in &groups {
        let st = perfstat::time_group(g, sms, samples, &threads);
        let scaling: String = st
            .scaling()
            .map(|(t, sp)| format!("  t{t} {sp:>5.2}x"))
            .collect();
        println!(
            "{:<8} {:>3} points  serial {:>9.3} ms ({:>12.0} sim-cyc/s)  threaded {:>9.3} ms ({:>12.0} sim-cyc/s){scaling}",
            st.id,
            st.points,
            st.serial.as_secs_f64() * 1e3,
            st.serial_sim_cycles_per_sec(),
            st.parallel().as_secs_f64() * 1e3,
            st.sim_cycles_per_sec(),
        );
        stats.push(st);
    }

    let json = perfstat::to_json(preset, sms, samples, &threads, &stats);
    std::fs::create_dir_all(&out_dir).expect("create perfstat output directory");
    let path = out_dir.join(format!("BENCH_{}.json", perfstat::next_bench_index(&out_dir)));
    std::fs::write(&path, &json).expect("write perfstat snapshot");
    println!("wrote {}", path.display());
}
