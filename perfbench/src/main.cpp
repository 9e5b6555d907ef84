// perfbench_relay: the relay benchmark's one binary. perfbench/run.py drives
// it; each subcommand prints one JSON line as its last line of output.
//
//   perfbench_relay block_relay --seed S --seconds T --trace 0|1
//                               [--trace-out spans.jsonl]
//   perfbench_relay host  --seed S --batch B
//   perfbench_relay load  --seed S --port P --backend graphene|rateless
//                         --sessions N
//   perfbench_relay replay --seed S --backend graphene|rateless --sessions N
//                          [--trace-out spans.jsonl]
#include <cstdio>
#include <cstring>
#include <exception>

#include "bench.hpp"

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s block_relay|host|load|replay [--flag value]...\n",
                 argv[0]);
    return 2;
  }
  try {
    const perfbench::Args args(argc, argv);
    const char* cmd = argv[1];
    if (std::strcmp(cmd, "block_relay") == 0) return perfbench::run_block_relay(args);
    if (std::strcmp(cmd, "host") == 0) return perfbench::run_daemon_host(args);
    if (std::strcmp(cmd, "load") == 0) return perfbench::run_daemon_load(args);
    if (std::strcmp(cmd, "replay") == 0) return perfbench::run_replay(args);
    std::fprintf(stderr, "perfbench_relay: unknown subcommand %s\n", cmd);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_relay: %s\n", e.what());
  }
  return 1;
}
