#pragma once
// The 8x8 CPE mesh state for one simulated core group.
//
// Each cell owns its LDM arena, its two receive-side transfer buffers
// (row bus and column bus), and its timing counters; the buffers store
// their messages in the mesh's one payload pool. The mesh is owned by a
// MeshExecutor and reused across launches: reset_for_launch() zeroes
// the counters, empties the buffers, and rewinds the LDM arenas in
// place, so a launch never re-allocates the 64 x 64 KB of arena memory
// or, once the pool is warm, any bus payload. Geometry comes from the
// machine spec so tests can run reduced meshes (e.g. 2x2 or 4x4, as the
// paper itself does when illustrating Fig. 3).
//
// The timing counters are plain integers, not atomics: each cell is
// written only by the CPE that owns it during a launch, and the
// executor reads them only after the launch has finished (the CPE
// fibers ran on the executor's own thread; the reference path joins its
// threads first). The per-FMA-charge hot path touches no shared atomic.

#include <cstdint>
#include <memory>
#include <vector>

#include "src/arch/spec.h"
#include "src/sim/dma.h"
#include "src/sim/ldm.h"
#include "src/sim/regcomm.h"

namespace swdnn::sim {

struct CpeCell {
  CpeCell(const arch::Sw26010Spec& spec, PayloadPool& pool)
      : ldm(spec.ldm_bytes),
        row_buffer(pool, spec.transfer_buffer_slots, "row bus"),
        col_buffer(pool, spec.transfer_buffer_slots, "column bus") {}

  LdmAllocator ldm;
  TransferBuffer row_buffer;  ///< messages arriving over the row bus
  TransferBuffer col_buffer;  ///< messages arriving over the column bus

  std::uint64_t compute_cycles = 0;
  std::uint64_t flops = 0;
  std::uint64_t regcomm_messages = 0;
  DmaShard dma;  ///< this CPE's DMA traffic, folded once per launch

  /// Launch-boundary reset: counters to zero, buffers emptied, LDM
  /// arena rewound (the arena memory itself is retained).
  void reset_for_launch();
};

class CpeMesh {
 public:
  explicit CpeMesh(const arch::Sw26010Spec& spec);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  int num_cpes() const { return rows_ * cols_; }

  CpeCell& cell(int row, int col) { return *cells_[index(row, col)]; }
  const CpeCell& cell(int row, int col) const {
    return *cells_[index(row, col)];
  }
  CpeCell& cell_by_id(int id) { return *cells_[id]; }

  /// The store behind every cell's transfer buffers.
  PayloadPool& payload_pool() { return payload_pool_; }
  const PayloadPool& payload_pool() const { return payload_pool_; }

  const arch::Sw26010Spec& spec() const { return spec_; }

  /// Resets every cell in place for the next launch.
  void reset_for_launch();

  /// Returns to the pool the payloads that the cells' last span
  /// receives still view (end of a launch). Messages left unread stay
  /// queued until the next reset.
  void release_views();

  /// Largest per-CPE compute cycle count (the mesh finishes when its
  /// slowest CPE does).
  std::uint64_t max_compute_cycles() const;

  /// Sum of flops executed by all CPEs.
  std::uint64_t total_flops() const;

  /// Total register-communication messages (256-bit each).
  std::uint64_t total_regcomm_messages() const;

 private:
  int index(int row, int col) const { return row * cols_ + col; }

  arch::Sw26010Spec spec_;  // by value: callers may pass temporaries
  int rows_;
  int cols_;
  PayloadPool payload_pool_;  // outlives the cells' buffers
  std::vector<std::unique_ptr<CpeCell>> cells_;
};

}  // namespace swdnn::sim
