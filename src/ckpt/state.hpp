// state.hpp — checkpoint codecs for state the fleet checkpoint embeds.
//
// Section tags and versions:
//
//   RNGS v1  Rng::State                         (inline, used inside others)
//   SERS v1  obs::TimeSeriesRecorder            (rows, cadence, decimation)
//   FLIT v1  obs::FlightRecorder                (rings, storm window, latch)
//
// The fleet's own FSPC/FENG/FDOM sections live in src/fleet (the domain
// SoA layout is private to the engine); each domain writes its per-node
// generators with write_rng/read_rng, and FleetSession appends SERS and
// FLIT when those hooks are attached.
#pragma once

#include "ckpt/codec.hpp"
#include "common/rng.hpp"
#include "obs/flight.hpp"
#include "obs/series.hpp"

namespace pico::ckpt {

// Inline (not section-framed): generator state embeds inside larger
// payloads — one per fleet node.
void write_rng(Writer& w, const Rng::State& st);
[[nodiscard]] Rng::State read_rng(Reader& r);

void write_series(Writer& w, const obs::TimeSeriesRecorder::CheckpointState& st);
[[nodiscard]] obs::TimeSeriesRecorder::CheckpointState read_series(Reader& r);

void write_flight(Writer& w, const obs::FlightRecorder::CheckpointState& st);
[[nodiscard]] obs::FlightRecorder::CheckpointState read_flight(Reader& r);

}  // namespace pico::ckpt
