#include "src/sim/mesh.h"

namespace swdnn::sim {

void CpeCell::reset_for_launch() {
  compute_cycles = 0;
  flops = 0;
  regcomm_messages = 0;
  dma.reset();
  ldm.reset();
  row_buffer.clear();
  col_buffer.clear();
}

CpeMesh::CpeMesh(const arch::Sw26010Spec& spec)
    : spec_(spec), rows_(spec.mesh_rows), cols_(spec.mesh_cols) {
  cells_.reserve(static_cast<std::size_t>(rows_) * cols_);
  for (int i = 0; i < rows_ * cols_; ++i) {
    cells_.push_back(std::make_unique<CpeCell>(spec, payload_pool_));
  }
}

void CpeMesh::reset_for_launch() {
  for (auto& c : cells_) c->reset_for_launch();
}

void CpeMesh::release_views() {
  for (auto& c : cells_) {
    c->row_buffer.release_view();
    c->col_buffer.release_view();
  }
}

std::uint64_t CpeMesh::max_compute_cycles() const {
  std::uint64_t best = 0;
  for (const auto& c : cells_) {
    best = std::max(best, c->compute_cycles);
  }
  return best;
}

std::uint64_t CpeMesh::total_flops() const {
  std::uint64_t total = 0;
  for (const auto& c : cells_) total += c->flops;
  return total;
}

std::uint64_t CpeMesh::total_regcomm_messages() const {
  std::uint64_t total = 0;
  for (const auto& c : cells_) total += c->regcomm_messages;
  return total;
}

}  // namespace swdnn::sim
