// Ablation of the index build's meet-in-the-middle distance passes
// (TwoSidedField, DESIGN.md §1): two balls whose depths sum to k - 1, each
// level on the side whose frontier scans less, then forward from s to
// depth k and backward on from t through X only — against the reference
// that runs the two full k-balls (IndexBuildOptions::prune_forward_bfs =
// false). This harness measures what meeting in the middle is worth on
// ep, gg and the hub-heavy up, and cross-checks that both variants build
// the same index: the same X, the same (v.s, v.t) per vertex, the same
// edge count, and the same ordered adjacency list per vertex. Slot numbers
// inside a cell differ between the variants, so an adjacency order that
// leaks slot numbering fails the check. It exits 1 on any mismatch.
// Besides the times it prints the mean adjacency entries each variant's
// distance passes examined per build, the share of X-only levels that ran
// bottom-up and the mean entries the adjacency assembly examined (each row
// from its cheaper side): all exact counts that repeat on any host, so
// they show the scan reductions without a timing gate.
#include <iostream>
#include <unordered_map>

#include "common/bench_util.h"
#include "core/index.h"
#include "util/table.h"
#include "workload/datasets.h"

using namespace pathenum;
using namespace pathenum::bench;

namespace {

/// The same X, the same (v.s, v.t) for every vertex, the same edge count,
/// the same ordered I_t(v, k) for every vertex. Maps a's vertices to their
/// slots once, so the check stays linear in the index size.
bool SameIndex(const LightweightIndex& a, const LightweightIndex& b) {
  if (a.num_vertices() != b.num_vertices() || a.num_edges() != b.num_edges())
    return false;
  std::unordered_map<VertexId, uint32_t> a_slots;
  for (uint32_t slot = 0; slot < a.num_vertices(); ++slot) {
    a_slots.emplace(a.VertexAt(slot), slot);
  }
  for (uint32_t slot = 0; slot < b.num_vertices(); ++slot) {
    const auto it = a_slots.find(b.VertexAt(slot));
    if (it == a_slots.end()) return false;
    const uint32_t other = it->second;
    if (a.DistFromSource(other) != b.DistFromSource(slot) ||
        a.DistToTarget(other) != b.DistToTarget(slot)) {
      return false;
    }
    const auto a_out = a.OutSlotsWithin(other, a.hops());
    const auto b_out = b.OutSlotsWithin(slot, b.hops());
    if (a_out.size() != b_out.size()) return false;
    for (size_t j = 0; j < a_out.size(); ++j) {
      if (a.VertexAt(a_out[j]) != b.VertexAt(b_out[j])) return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  const BenchEnv env = BenchEnv::FromEnv();
  PrintBanner("Ablation — meet-in-the-middle distance passes in index build",
              "implementation design choice (DESIGN.md §1)", env);

  bool all_identical = true;
  for (const std::string name : {"ep", "gg", "up"}) {
    const Graph g = CachedDataset(name, env.scale);
    std::cout << "\nDataset " << name
              << " (mean ms and adjacency entries examined per index build; "
                 "share of X-only levels run bottom-up; mean entries the "
                 "assembly examined)\n";
    TablePrinter table({"k", "mitm", "full balls", "speedup", "mitm scan",
                        "full scan", "bottom-up", "assembly scan",
                        "identical"});
    IndexBuilder builder;
    for (uint32_t k = 3; k <= 8; ++k) {
      const auto queries = MakeQueries(g, env, k);
      if (queries.empty()) continue;
      double mitm_ms = 0, full_ms = 0;
      uint64_t mitm_scan = 0, full_scan = 0;
      uint64_t x_only_levels = 0, bottom_up_levels = 0;
      uint64_t assembly_scan = 0;
      bool identical = true;
      for (const Query& q : queries) {
        const LightweightIndex a = builder.Build(g, q);
        mitm_ms += a.build_stats().total_ms;
        mitm_scan += a.build_stats().edges_scanned;
        x_only_levels += a.build_stats().x_only_levels;
        bottom_up_levels += a.build_stats().bottom_up_levels;
        assembly_scan += a.build_stats().adjacency_scanned;
        IndexBuildOptions full_opts;
        full_opts.prune_forward_bfs = false;
        const LightweightIndex b = builder.Build(g, q, full_opts);
        full_ms += b.build_stats().total_ms;
        full_scan += b.build_stats().edges_scanned;
        identical &= SameIndex(a, b);
      }
      all_identical &= identical;
      const double n = static_cast<double>(queries.size());
      table.AddRow(
          {std::to_string(k), FormatSci(mitm_ms / n), FormatSci(full_ms / n),
           FormatFixed(mitm_ms > 0 ? full_ms / mitm_ms : 0, 2) + "x",
           FormatSci(static_cast<double>(mitm_scan) / n),
           FormatSci(static_cast<double>(full_scan) / n),
           x_only_levels > 0
               ? FormatFixed(static_cast<double>(bottom_up_levels) /
                                 static_cast<double>(x_only_levels),
                             2)
               : "-",
           FormatSci(static_cast<double>(assembly_scan) / n),
           identical ? "yes" : "NO (BUG)"});
    }
    table.Print(std::cout);
  }
  PrintShapeNote(
      "Expected: identical indexes (meeting in the middle is exact — a "
      "vertex of X deeper than one side's split is within the other side's "
      "split, and every vertex on a shortest path to a vertex of X is in "
      "X, and both directions of an X-only level admit the same set; both "
      "directions of an assembly row write the same (v'.t, id)-ordered "
      "lists), with build speedups and smaller scans wherever the full "
      "k-balls outgrow the two cheaper-side balls plus X's levels.");
  if (!all_identical) {
    std::cerr << "bench_ablation_bfsprune: meet-in-the-middle and full-ball "
                 "builds differ\n";
    return 1;
  }
  return 0;
}
