// The one exit-code and signal convention shared by the long-running
// tools (sweep_runner, hinetd), so scripts and CI can branch on status
// without knowing which binary produced it:
//
//   0  ok              — the requested work completed
//   1  failed          — permanent failure (deterministic replicate error,
//                        nothing aggregated); retrying will not help
//   2  usage           — bad flags/arguments; fix the invocation
//   3  transient       — retryable: interrupted by SIGINT/SIGTERM,
//                        admission reject (queue full), query miss,
//                        transient replicate failures still pending,
//                        another writer holds the log, jobs whose journal
//                        a live sibling drain holds
//   4  corrupt-state   — a durable artifact (journal, store index,
//                        segment, queue) failed its integrity checks;
//                        human attention required before retrying
//
// SIGINT and SIGTERM both request graceful shutdown (finish + journal the
// in-flight unit, exit 3); a second delivery falls back to the default
// disposition.  Both tools print this table under --help.
#pragma once

#include <exception>
#include <stdexcept>

#include "service/job_queue.hpp"
#include "util/binary_io.hpp"
#include "util/framed_log.hpp"

namespace hinet {

enum ExitCode : int {
  kExitOk = 0,
  kExitFailed = 1,
  kExitUsage = 2,
  kExitTransient = 3,
  kExitCorruptState = 4,
};

/// The table above, formatted for --help output.
inline const char* exit_code_help() {
  return "exit codes: 0 ok | 1 permanent failure | 2 usage | "
         "3 transient/retryable (interrupted, queue full, miss, job held "
         "by a sibling drain, concurrent writer) | 4 corrupt durable state";
}

/// Maps a caught exception to the convention: usage errors → 2, admission
/// rejects / writer contention → 3, integrity failures → 4, anything
/// else → 1.
inline int exit_code_for_exception(const std::exception& e) {
  if (dynamic_cast<const QueueFullError*>(&e) != nullptr) {
    return kExitTransient;
  }
  // Before the IoError check: a contended writer lock derives IoError but
  // is retryable, not corruption.
  if (dynamic_cast<const ConcurrentWriterError*>(&e) != nullptr) {
    return kExitTransient;
  }
  if (dynamic_cast<const IoError*>(&e) != nullptr) return kExitCorruptState;
  if (dynamic_cast<const std::invalid_argument*>(&e) != nullptr) {
    return kExitUsage;
  }
  return kExitFailed;
}

}  // namespace hinet
