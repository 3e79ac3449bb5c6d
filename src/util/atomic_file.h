// Crash-safe file writes: write-temp-then-rename, with an fsync before the
// rename so a power cut or SIGKILL can never leave a torn or truncated
// artifact under the final name. Every structured export in the repo
// (aggregate JSON, series/table CSVs, journal cell payloads)
// goes through this helper; readers therefore only ever see a file that is
// either absent or complete.
#pragma once

#include <string>
#include <string_view>

namespace manet::util {

/// Create `path`'s parent directories if they do not exist yet (trace sinks
/// open at sim start, before any exporter has made the export directory).
/// Thread-safe; best-effort: a failure shows up when the caller opens
/// `path`.
void ensureParentDir(const std::string& path);

/// Write `content` to `path` atomically: the bytes land in a unique
/// temporary sibling (`<path>.tmp.<pid>`), are flushed and fsynced, and the
/// temporary is then renamed over `path` (rename(2) is atomic within a
/// filesystem). Parent directories are created as needed. Returns false and
/// logs to stderr on failure; a failed attempt removes its temporary.
bool atomicWriteFile(const std::string& path, std::string_view content);

/// Append `line` (a newline is added if missing) to `path`, then flush and
/// fsync, so the line is durable before the call returns. Creates the file
/// and parent directories on first use. A single append is one write(2)
/// call, so concurrent appenders (O_APPEND) never interleave bytes.
/// Returns false and logs to stderr on failure.
bool appendLineDurable(const std::string& path, std::string_view line);

}  // namespace manet::util
