//! The gated run: the end-to-end metrics, no span, no probe.

fn main() -> std::process::ExitCode {
    ncx_e2e::cli::main_with(ncx_e2e::end_to_end, false)
}
