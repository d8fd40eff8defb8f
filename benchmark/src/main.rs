fn main() {
    std::process::exit(disco_benchmark::cli::main());
}
