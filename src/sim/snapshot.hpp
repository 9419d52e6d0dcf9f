// Engine checkpoints: SimSnapshot and the shared metric serializers.
//
// A SimSnapshot captures everything an Engine needs to continue a paused
// run from a round boundary: the round counter, the partially accumulated
// SimMetrics, per-node completion flags, every process's mutable state
// (token/sent sets, phase bookkeeping — via Process::save_state) and the
// channel's cross-round state (RNG stream positions, Gilbert–Elliott chain
// states — via ChannelModel::save_state).  The topology and hierarchy are
// NOT serialized, streamed or not: DynamicNetwork/HierarchyProvider are
// deterministic functions of the spec's seed, so the resuming caller
// rebuilds the spec (same factory, same seed) and Engine::restore
// re-attaches the saved state to it.  A streamed trace then reaches the
// resume round by synthesizing its prefix forward from the seed — the
// restore pays that synthesis, and the snapshot stores no generator state
// (version 3 payloads; version 2 carried it, and is refused).
//
// The hard guarantee, pinned by tests/sim/test_snapshot.cpp over every
// scenario × channel pair: snapshot at round r, restore into a freshly
// built identical spec, run to the end — the final SimMetrics are
// byte-identical to an uninterrupted run.
//
// On disk a snapshot travels inside the shared checksummed container
// (util/binary_io.hpp): magic, version, length, CRC-32, payload.  Any
// truncation, bit flip or version skew is rejected with a diagnostic at
// load time; the fuzz suite (tests/sim/test_snapshot_fuzz.cpp) enforces
// "rejected, never UB" byte by byte.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/metrics.hpp"
#include "util/binary_io.hpp"
#include "util/token_set.hpp"

namespace hinet {

/// A serialized engine checkpoint.  Opaque payload; produced by
/// Engine::snapshot(), consumed by Engine::restore(), persisted with
/// save_snapshot_file / load_snapshot_file.
struct SimSnapshot {
  static constexpr std::uint32_t kMagic = 0x53'4e'48'53u;  // "SHNS"
  static constexpr std::uint16_t kVersion = 3;

  std::vector<std::uint8_t> payload;

  std::size_t size_bytes() const { return payload.size(); }
};

/// Writes the snapshot inside the checksummed container format (atomic
/// write-then-rename).  Throws IoError on I/O failure.
void save_snapshot_file(const SimSnapshot& snap, const std::string& path);

/// Reads a snapshot file, validating magic, version and CRC.  Throws
/// IoError describing the exact corruption otherwise.
SimSnapshot load_snapshot_file(const std::string& path);

// Shared serializers, used by the snapshot payload, the experiment journal
// and the process save_state implementations.

/// TokenSet as universe + raw bitmap words; load validates the stored
/// universe against `expected_universe` (a mismatch means the snapshot is
/// being restored into a differently-parameterised run).
void save_token_set(ByteWriter& w, const TokenSet& s);
TokenSet load_token_set(ByteReader& r, std::size_t expected_universe);

/// Full SimMetrics, bit-exact (doubles are not stored — SimMetrics holds
/// only integral series; derived fractions are recomputed).
void save_metrics(ByteWriter& w, const SimMetrics& m);
SimMetrics load_metrics(ByteReader& r);

}  // namespace hinet
