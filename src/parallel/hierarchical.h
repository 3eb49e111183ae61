#pragma once
// Hierarchical multi-CG / multi-node data-parallel training.
//
// swCaffe (the paper's own sequel) scales swDNN past one core group by
// composing two collectives: gradients reduce *intra-node* across the
// four CGs over the on-chip NoC, then *inter-node* over the TaihuLight
// network as a ring across node leaders, then broadcast back down. This
// module reproduces that hierarchy on the simulator and adds the two
// schedule optimizations that make it pay:
//
//   * bucketed comm/compute overlap — backward emits per-layer gradient
//     buckets (the compiled graph's reverse node order fixes the
//     emission order); a bucket starts reducing the moment every live
//     replica has finished writing it, while earlier layers are still
//     back-propagating. Execution rides the PR-5 host TaskPool: the
//     worker whose replica completes a bucket last reduces it inline,
//     overlapping with the remaining backward chunks on other lanes.
//   * a first cut of pipeline parallelism (pipeline.h) partitions a
//     compiled network's layer stack across CGs instead of replicating
//     it.
//
// Determinism contract (the whole design leans on it): the numeric
// reduction is ONE canonical kernel — for every element, partial sums
// accumulate over live CGs in ascending rank order within each node,
// then over live nodes in ascending node order — regardless of which
// transport is modeled (flat ring or hierarchy), whether buckets reduce
// overlapped or after backward, and in which order they complete.
// Transports and schedules only change the *modeled time* and the
// wall-clock interleaving, never a bit of the result; that is what
// makes "hierarchical overlapped == flat serialized, bitwise" testable
// and lets the fault ladder kill ranks mid-epoch without perturbing the
// survivors' arithmetic.
//
// This is the library's one data-parallel trainer. Plain synchronous
// SGD over N nodes is HierTopology::grid(N, 1): one CG per node, so the
// intra-node NoC terms are zero and the modeled exchange is the flat
// ring's.

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/dnn/backend_context.h"
#include "src/dnn/network.h"
#include "src/dnn/sgd.h"
#include "src/dnn/trainer.h"
#include "src/parallel/allreduce.h"
#include "src/sim/noc.h"

namespace swdnn::arch {
struct Sw26010Spec;
}  // namespace swdnn::arch

namespace swdnn::parallel {

/// Replica placement: rank r lives on node r / cgs_per_node, core group
/// r % cgs_per_node. The last node may be ragged (fewer CGs) when
/// total_ranks is not a multiple of cgs_per_node.
struct HierTopology {
  int nodes = 1;
  int cgs_per_node = 1;
  int total_ranks = 1;

  /// Fully populated grid: nodes x cgs_per_node ranks.
  static HierTopology grid(int nodes, int cgs_per_node);
  /// Ragged fill: total_ranks packed cgs_per_node at a time; the last
  /// node takes the remainder.
  static HierTopology ragged(int total_ranks, int cgs_per_node);

  int node_of(int rank) const { return rank / cgs_per_node; }
  int cg_of(int rank) const { return rank % cgs_per_node; }
  int first_rank(int node) const { return node * cgs_per_node; }
  int ranks_in_node(int node) const;
};

/// The two-level cost model: node-to-node links are the existing
/// TaihuLight interconnect numbers; CG-to-CG links the on-chip NoC.
struct HierCostModel {
  InterconnectSpec inter;       ///< node network (ring between leaders)
  sim::NocInterconnectSpec intra;  ///< NoC (within-node reduce/broadcast)
};

/// Modeled seconds for a FLAT ring all-reduce of `bytes` over every
/// live rank, each ring step charged at node-link speed (the pessimal
/// but standard placement-oblivious baseline: a step's slowest link is
/// a node link whenever any neighbor pair crosses nodes).
double flat_exchange_seconds(std::int64_t bytes, int live_ranks,
                             const HierCostModel& cost = {});

/// Per-phase breakdown of one hierarchical exchange.
struct HierExchangeBreakdown {
  double intra_reduce_seconds = 0;  ///< CGs -> node leader, over the NoC
  double inter_ring_seconds = 0;    ///< ring across live node leaders
  double intra_broadcast_seconds = 0;  ///< leader -> CGs, over the NoC
  double total() const {
    return intra_reduce_seconds + inter_ring_seconds +
           intra_broadcast_seconds;
  }
};

/// Modeled seconds for one hierarchical exchange of `bytes`:
/// live_per_node[j] = live CGs on node j (0 = node skipped entirely).
/// Nodes run their intra phases concurrently, so the intra terms charge
/// the busiest node; the inter ring runs over nodes with >= 1 live CG.
HierExchangeBreakdown hier_exchange_seconds(
    std::int64_t bytes, const std::vector<int>& live_per_node,
    const HierCostModel& cost = {});

/// One gradient bucket: a contiguous run of backward-emission-order
/// graph nodes and the parameters they own. Boundaries are fixed at
/// setup from the graph alone — never from arrival order.
struct GradBucket {
  std::vector<std::size_t> layer_indices;  ///< ascending layer index
  std::size_t backward_units = 0;  ///< hook events per replica per step
  std::int64_t elements = 0;       ///< parameter elements in the bucket
  std::int64_t bytes() const { return elements * 8; }
};

/// Proxy for modeled per-layer compute time (closed-form, like the
/// interconnect model): a backward unit is charged for streaming its
/// output activation and its parameters, plus a fixed launch overhead;
/// backward costs a multiple of forward (two GEMMs vs one). The
/// absolute scale is a stand-in — what the overlap schedule consumes is
/// the *shape* of the per-bucket emission timeline, and both the
/// serialized and overlapped step times are computed from the same
/// numbers, so their ratio is meaningful.
struct ComputeCostModel {
  double activation_gbs = 24.0;   ///< effective activation stream rate
  double param_gbs = 12.0;        ///< effective parameter stream rate
  double unit_overhead_us = 2.0;  ///< per backward unit (launch + sync)
  double backward_factor = 2.0;   ///< backward/forward cost ratio
};

/// How a step executes and is charged.
enum class ExchangeMode {
  kFlatRing,      ///< modeled as one flat ring over all live ranks
  kHierarchical,  ///< modeled as NoC-intra + ring-inter + broadcast
};

struct HierStepOptions {
  ExchangeMode exchange = ExchangeMode::kHierarchical;
  /// true: buckets reduce from the backward hook as they complete
  /// (wall-clock overlap on the task pool). false: all buckets reduce
  /// after every replica's backward returns. Bitwise-identical results
  /// either way.
  bool overlap = true;
};

/// Everything one step decided and what it would cost. All times are
/// modeled (deterministic); both transports and both schedules are
/// reported every step so benches can compare without re-running.
struct HierStepReport {
  double loss = 0;
  std::int64_t correct = 0;
  int live_ranks = 0;
  int live_nodes = 0;
  std::int64_t exchange_bytes = 0;  ///< gradient bytes reduced

  // Modeled compute phase (per replica; replicas run concurrently).
  double forward_seconds = 0;
  double backward_seconds = 0;

  // Modeled exchange of the full gradient in one shot.
  double exchange_flat_seconds = 0;
  HierExchangeBreakdown exchange_hier;

  // Modeled step times under the step's ExchangeMode:
  // serialized = fwd + bwd + one-shot exchange;
  // overlapped = fwd + bucket-pipelined max(bwd, comm) timeline.
  double step_serialized_seconds = 0;
  double step_overlapped_seconds = 0;

  double hier_exchange_speedup() const {
    const double h = exchange_hier.total();
    return h > 0 ? exchange_flat_seconds / h : 0.0;
  }
  double overlap_speedup() const {
    return step_overlapped_seconds > 0
               ? step_serialized_seconds / step_overlapped_seconds
               : 0.0;
  }
};

/// Data-parallel training over a node x CG hierarchy. One full replica
/// per rank; all replicas share one BackendContext after compile() (one
/// Handle, one plan cache). Replicas step concurrently on the host task
/// pool; gradient exchange follows the canonical reduction above.
class HierarchicalTrainer {
 public:
  HierarchicalTrainer(const HierTopology& topology,
                      const std::function<std::unique_ptr<dnn::Network>()>&
                          make_replica,
                      double learning_rate, double momentum = 0.0,
                      HierCostModel cost = {},
                      ComputeCostModel compute = {});
  ~HierarchicalTrainer();

  const HierTopology& topology() const { return topology_; }
  int ranks() const { return topology_.total_ranks; }
  dnn::Network& replica(int rank) {
    return *replicas_.at(static_cast<std::size_t>(rank));
  }

  /// Compiles every replica for the per-rank shard shape against ONE
  /// shared BackendContext (one Handle, one plan cache): replicas run
  /// identical shapes, so the first replica's plan warm-up serves all
  /// of them, and fault/fallback accounting aggregates in one place.
  /// Also builds the gradient buckets from the compiled graph's
  /// backward node order. `spec` = nullptr uses the real SW26010
  /// numbers.
  void compile(const std::vector<std::int64_t>& shard_input_dims,
               const arch::Sw26010Spec* spec = nullptr);

  dnn::BackendContext* shared_context() { return shared_context_.get(); }

  /// Coalesces adjacent backward-emission buckets until each holds at
  /// least this many gradient bytes (0 = one bucket per parameter-
  /// owning graph node). Must be set before the first train_step /
  /// compile; fixed thereafter (bucket boundaries are part of the
  /// determinism contract).
  void set_min_bucket_bytes(std::int64_t bytes);

  /// The fixed bucket layout (empty before compile / first step).
  const std::vector<GradBucket>& buckets() const { return buckets_; }

  /// One synchronous step: concurrent per-rank forward/backward on the
  /// shards, canonical gradient reduction (average over live ranks,
  /// scheduled per `options`), identical optimizer step everywhere.
  /// `shards` must have one batch per rank; dead ranks' shards are
  /// ignored. Results are bitwise-identical across exchange modes,
  /// overlap settings, and host thread counts.
  HierStepReport train_step(const std::vector<dnn::Batch>& shards,
                            const HierStepOptions& options = {});

  // --- Self-healing ---------------------------------------------------
  /// The rank stops computing; its gradients leave the reduction (the
  /// average rescales to the live count). A node whose CGs all die
  /// drops out of the inter-node ring entirely.
  void kill_rank(int rank);

  /// Restores the rank from a live survivor (parameters + optimizer
  /// state) so it rejoins in exact lockstep.
  void revive_rank(int rank);

  bool rank_alive(int rank) const {
    return alive_.at(static_cast<std::size_t>(rank));
  }
  /// The rank's optimizer (its momentum state).
  const dnn::Sgd& optimizer(int rank) const {
    return optimizers_.at(static_cast<std::size_t>(rank));
  }
  int live_ranks() const;
  /// Nodes with at least one live CG.
  int live_nodes() const;
  /// Live CGs per node (the inter-ring membership view).
  std::vector<int> live_per_node() const;

  /// Largest parameter divergence across live replicas (0 in lockstep).
  double max_replica_divergence();

  /// Bytes reduced per step (all parameters).
  std::int64_t gradient_bytes();

 private:
  /// Lazy bucket/cost setup from replica 0 (graph nodes when compiled,
  /// layers otherwise) and the shard input dims.
  void setup_buckets(const std::vector<std::int64_t>& input_dims);

  /// Canonical fixed-order reduction of one bucket across live ranks
  /// (see the file comment); averages and writes back to every live
  /// replica. Thread-safe per bucket: concurrent calls for DIFFERENT
  /// buckets touch disjoint gradients and scratch.
  void reduce_bucket(std::size_t bucket_index);

  /// Backward hook body for `rank`: counts the unit against its bucket
  /// and reduces inline when this replica is the last arrival.
  void on_backward_unit(int rank, std::size_t first_layer);

  HierTopology topology_;
  HierCostModel cost_;
  ComputeCostModel compute_;
  std::vector<std::unique_ptr<dnn::Network>> replicas_;
  std::vector<dnn::Sgd> optimizers_;
  std::vector<bool> alive_;
  std::unique_ptr<dnn::BackendContext> shared_context_;

  // Bucket state (fixed after setup).
  std::int64_t min_bucket_bytes_ = 0;
  bool buckets_ready_ = false;
  std::vector<GradBucket> buckets_;
  std::vector<std::size_t> layer_to_bucket_;  ///< first_layer -> bucket
  /// Per-bucket scratch for the canonical reduction (sized to the
  /// bucket's largest parameter): [0] = node partial, [1] = total.
  std::vector<std::array<std::vector<double>, 2>> scratch_;
  /// Per-bucket completed backward-unit events this step; a bucket is
  /// ready at live_ranks * backward_units events.
  std::unique_ptr<std::atomic<int>[]> bucket_events_;
  int step_live_ranks_ = 0;   ///< snapshot for the hook path
  bool overlap_active_ = false;
  /// Hooks are installed once at setup but must only count events while
  /// a train_step's backward is running (tests drive replicas' backward
  /// directly when building references).
  bool step_active_ = false;

  // Modeled per-backward-unit costs in backward emission order, and
  // the bucket each unit belongs to (both fixed at setup).
  std::vector<double> unit_backward_seconds_;
  std::vector<std::size_t> unit_bucket_;
  double forward_seconds_total_ = 0;
};

}  // namespace swdnn::parallel
