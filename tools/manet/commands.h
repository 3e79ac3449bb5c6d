// Subcommands of the `manet` CLI (tools/manet/main.cc). Each receives the
// arguments after `manet`: argv[0] is the subcommand's own name, so the
// options start at argv[1].
#pragma once

namespace manet::cli {

int traceMain(int argc, char** argv);  // JSONL trace analysis
int ctlMain(int argc, char** argv);    // experiment journals

}  // namespace manet::cli
