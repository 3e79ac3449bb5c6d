// manet: the offline analysis CLI, one binary with a subcommand per input.
//
//   manet trace <trace.jsonl> [...]   JSONL traces: summary, causal chains,
//                                     stale-drop attribution, Perfetto export
//   manet ctl <command> JOURNAL...    experiment journals: status, failures,
//                                     resume command, aggregation
//
// `manet <subcommand> --help` prints that subcommand's usage.
#include <cstdio>
#include <cstring>

#include "tools/manet/commands.h"

namespace {

int usage(int code) {
  std::fprintf(stderr,
               "usage: manet <subcommand> [args...]\n"
               "  trace  analyse a JSONL trace (MANET_TRACE_JSONL)\n"
               "  ctl    inspect and aggregate experiment journals\n");
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(2);
  const char* sub = argv[1];
  if (std::strcmp(sub, "trace") == 0) {
    return manet::cli::traceMain(argc - 1, argv + 1);
  }
  if (std::strcmp(sub, "ctl") == 0) {
    return manet::cli::ctlMain(argc - 1, argv + 1);
  }
  if (std::strcmp(sub, "--help") == 0 || std::strcmp(sub, "-h") == 0) {
    return usage(0);
  }
  std::fprintf(stderr, "manet: unknown subcommand '%s'\n", sub);
  return usage(2);
}
