#include "src/conv/regcomm_gemm.h"

#include "src/arch/isa.h"

namespace swdnn::conv {

namespace {
sim::Vec4 pack(std::span<const double> data, std::size_t offset) {
  sim::Vec4 v;
  for (int l = 0; l < 4; ++l) {
    const std::size_t idx = offset + static_cast<std::size_t>(l);
    v.lane[l] = idx < data.size() ? data[idx] : 0.0;
  }
  return v;
}

void unpack(const sim::Vec4& v, std::span<double> out, std::size_t offset) {
  for (int l = 0; l < 4; ++l) {
    const std::size_t idx = offset + static_cast<std::size_t>(l);
    if (idx < out.size()) out[idx] = v.lane[l];
  }
}
}  // namespace

void bus_broadcast_row(sim::CpeContext& ctx, std::span<const double> data,
                       BusPathMode mode) {
  if (mode == BusPathMode::kBulkSpan) {
    ctx.bcast_row_span(data);
    return;
  }
  for (std::size_t off = 0; off < data.size(); off += 4) {
    ctx.bcast_row(pack(data, off));
  }
}

std::span<const double> bus_recv_row(sim::CpeContext& ctx,
                                     std::span<double> buffer,
                                     BusPathMode mode) {
  if (mode == BusPathMode::kBulkSpan) return ctx.recv_row_span(buffer);
  for (std::size_t off = 0; off < buffer.size(); off += 4) {
    unpack(ctx.get_row(), buffer, off);
  }
  return buffer;
}

void bus_broadcast_col(sim::CpeContext& ctx, std::span<const double> data,
                       BusPathMode mode) {
  if (mode == BusPathMode::kBulkSpan) {
    ctx.bcast_col_span(data);
    return;
  }
  for (std::size_t off = 0; off < data.size(); off += 4) {
    ctx.bcast_col(pack(data, off));
  }
}

std::span<const double> bus_recv_col(sim::CpeContext& ctx,
                                     std::span<double> buffer,
                                     BusPathMode mode) {
  if (mode == BusPathMode::kBulkSpan) return ctx.recv_col_span(buffer);
  for (std::size_t off = 0; off < buffer.size(); off += 4) {
    unpack(ctx.get_col(), buffer, off);
  }
  return buffer;
}

void local_gemm_accumulate_ref(sim::CpeContext& ctx,
                               std::span<const double> w,
                               std::span<const double> di,
                               std::span<double> out, int m_tile, int k_tile,
                               int n_tile) {
  // w is [k][m] (channel-major, the filter's natural DMA order), di is
  // [k][n], out is [m][n]: a rank-k_tile sequence of outer products —
  // the register-blocked kernel shape of Fig. 5.
  for (int k = 0; k < k_tile; ++k) {
    const double* wk = w.data() + static_cast<std::size_t>(k) * m_tile;
    const double* dik = di.data() + static_cast<std::size_t>(k) * n_tile;
    for (int m = 0; m < m_tile; ++m) {
      double* row = out.data() + static_cast<std::size_t>(m) * n_tile;
      const double wv = wk[m];
      for (int n = 0; n < n_tile; ++n) row[n] += wv * dik[n];
    }
  }
  ctx.charge_flops(2ull * static_cast<std::uint64_t>(m_tile) *
                   static_cast<std::uint64_t>(k_tile) *
                   static_cast<std::uint64_t>(n_tile));
}

void local_gemm_accumulate(sim::CpeContext& ctx, std::span<const double> w,
                           std::span<const double> di, std::span<double> out,
                           int m_tile, int k_tile, int n_tile,
                           LocalGemmIsa isa) {
  gemm_tile(w.data(), m_tile, di.data(), n_tile, out.data(), n_tile, m_tile,
            k_tile, n_tile, isa);
  ctx.charge_flops(2ull * static_cast<std::uint64_t>(m_tile) *
                   static_cast<std::uint64_t>(k_tile) *
                   static_cast<std::uint64_t>(n_tile));
}

void mesh_gemm_accumulate(sim::CpeContext& ctx,
                          std::span<const double> w_local,
                          std::span<const double> di_local,
                          std::span<double> do_local,
                          std::span<double> w_recv, std::span<double> di_recv,
                          int m_tile, int k_tile, int n_tile,
                          BusPathMode mode) {
  const int p = ctx.mesh_rows();
  for (int t = 0; t < p; ++t) {
    // W phase on the row buses: column t fans its tiles out, and the
    // receivers compute on them where the bus left them.
    std::span<const double> w_cur = w_local;
    if (ctx.col() == t) {
      bus_broadcast_row(ctx, w_local, mode);
    } else {
      w_cur = bus_recv_row(ctx, w_recv, mode);
    }
    // Di phase on the column buses: row t fans its tiles down.
    std::span<const double> di_cur = di_local;
    if (ctx.row() == t) {
      bus_broadcast_col(ctx, di_local, mode);
    } else {
      di_cur = bus_recv_col(ctx, di_recv, mode);
    }
    if (mode == BusPathMode::kBulkSpan) {
      local_gemm_accumulate(ctx, w_cur, di_cur, do_local, m_tile, k_tile,
                            n_tile);
    } else {
      local_gemm_accumulate_ref(ctx, w_cur, di_cur, do_local, m_tile, k_tile,
                                n_tile);
    }
    // Keep bus traffic of consecutive steps from interleaving: the
    // transfer buffers are FIFO per bus, and step t+1 has a different
    // sender.
    ctx.sync();
  }
}

void tally_mesh_gemm_accumulate(sim::LaunchTally& tally,
                                const arch::Sw26010Spec& spec,
                                std::uint64_t calls, std::int64_t m_tile,
                                std::int64_t k_tile, std::int64_t n_tile) {
  const auto p = static_cast<std::uint64_t>(spec.mesh_rows);
  const auto w_messages = static_cast<std::uint64_t>(k_tile * m_tile + 3) / 4;
  const auto di_messages =
      static_cast<std::uint64_t>(k_tile * n_tile + 3) / 4;
  const auto getr = static_cast<std::uint64_t>(
      arch::op_info(arch::Opcode::kGetr).latency_cycles);
  const auto getc = static_cast<std::uint64_t>(
      arch::op_info(arch::Opcode::kGetc).latency_cycles);
  const auto flops = 2 * static_cast<std::uint64_t>(m_tile * k_tile * n_tile);
  const auto per_cycle =
      static_cast<std::uint64_t>(spec.flops_per_cycle_per_cpe());
  // Over the P steps every CPE broadcasts once on each bus (one issue
  // cycle per message) and receives P - 1 times (the get latency per
  // message), and runs P local tiles.
  const std::uint64_t cycles = w_messages * (1 + (p - 1) * getr) +
                               di_messages * (1 + (p - 1) * getc) +
                               p * ((flops + per_cycle - 1) / per_cycle);
  tally.cpe_cycles += calls * cycles;
  tally.flops += calls * p * p * p * flops;
  tally.regcomm_messages +=
      calls * p * p * (p - 1) * (w_messages + di_messages);
}

}  // namespace swdnn::conv
