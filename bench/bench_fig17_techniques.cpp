// Figure 17 (appendix F): execution time of each individual technique —
// BFS, index construction, join-order optimization, DFS enumeration, JOIN
// enumeration — with k varied 3..8. Each row also carries the calibration
// record of kJoinTupleCost (core/estimator.h, DESIGN.md §3):
//   Unit    queries unit-priced Eq. 1 (the paper's model) would send to
//           IDX-JOIN, under the same preliminary-estimator gate;
//   Auto    queries kAuto sends to IDX-JOIN at the compiled constant;
//   Faster  queries on which IDX-JOIN enumerated faster than IDX-DFS;
//   J/D     the median per-unit cost ratio (ms_JOIN / T_JOIN) /
//           (ms_DFS / T_DFS) over the queries kAuto priced (the
//           preliminary estimate exceeded τ, so the constant decided them)
//           and both methods completed.
// Graphs are catalog generators re-seeded the way servebench/ derives its
// instances from a run seed. ep and up at seed 1, k = 4..6, are the
// calibration set the constant is the median of; ep and up at seed 9001
// and gg at seed 1 are held out. Exits 1 if IDX-DFS and IDX-JOIN ever
// return different result counts on a query both completed.
#include <iostream>
#include <string>
#include <vector>

#include "common/bench_util.h"
#include "core/estimator.h"
#include "core/path_enum.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/timer.h"

using namespace pathenum;
using namespace pathenum::bench;

namespace {

struct Instance {
  const char* name;
  uint64_t seed;
  bool calibration;  // else held out
};

/// Picks and per-unit ratios gathered over a set of queries.
struct Agreement {
  uint64_t queries = 0;
  uint64_t faster_picked = 0;  // kAuto picked the method that ran faster
  std::vector<double> unit_ratios;

  void Print(const char* label) {
    std::cout << label << ": kAuto picked the faster method on "
              << faster_picked << " of " << queries << " queries";
    if (!unit_ratios.empty()) {
      std::cout << "; median per-unit JOIN/DFS "
                << FormatFixed(PercentileInPlace(unit_ratios, 50.0)) << " over "
                << unit_ratios.size();
    }
    std::cout << "\n";
  }
};

}  // namespace

int main() {
  const BenchEnv env = BenchEnv::FromEnv();
  PrintBanner("Figure 17 — Execution time of individual techniques",
              "PathEnum (SIGMOD'21) Figure 17", env);

  const Instance instances[] = {{"ep", 1, true},
                                {"up", 1, true},
                                {"ep", 9001, false},
                                {"up", 9001, false},
                                {"gg", 1, false}};
  Agreement calibration, held_out;
  bool counts_agree = true;
  for (const Instance& inst : instances) {
    const Graph g = CachedDataset(inst.name, env.scale, inst.seed);
    std::cout << "\nDataset " << inst.name << " seed " << inst.seed
              << (inst.calibration ? " (calibration)" : " (held out)")
              << " (mean ms per query)\n";
    TablePrinter table({"k", "BFS", "IndexConstruction", "Optimization",
                        "DFS", "JOIN", "Unit", "Auto", "Faster", "J/D"});
    IndexBuilder builder;
    PathEnumerator enumerator(g);
    for (uint32_t k = 3; k <= 8; ++k) {
      const auto queries = MakeQueries(g, env, k);
      if (queries.empty()) continue;
      double bfs = 0, index = 0, optimize = 0, dfs = 0, join = 0;
      uint64_t unit_joins = 0, auto_joins = 0, join_faster = 0;
      std::vector<double> unit_ratios;
      const EnumOptions opts = MakeOptions(env);
      for (const Query& q : queries) {
        const LightweightIndex idx = builder.Build(g, q);
        bfs += idx.build_stats().bfs_ms;
        index += idx.build_stats().total_ms;
        Timer opt_timer;
        const JoinPlan plan = OptimizeJoinOrder(idx);
        optimize += opt_timer.ElapsedMs();

        QueryStats planned;
        const bool picks_join =
            PathEnumerator::PlanExecution(idx, opts, planned).method ==
            Method::kJoin;
        const bool optimized = planned.preliminary_estimate > opts.tau;
        unit_joins += optimized && plan.cut != 0 && plan.t_join < plan.t_dfs;
        EnumOptions forced = opts;
        CountingSink dfs_sink, join_sink;
        forced.method = Method::kDfs;
        const QueryStats d = enumerator.RunWithIndex(idx, dfs_sink, forced);
        forced.method = Method::kJoin;
        const QueryStats j = enumerator.RunWithIndex(idx, join_sink, forced);
        dfs += d.enumerate_ms;
        join += j.enumerate_ms;

        const bool both = d.counters.completed() && j.counters.completed();
        if (both && dfs_sink.count() != join_sink.count()) {
          std::cerr << inst.name << " seed " << inst.seed << " q(" << q.source
                    << ", " << q.target << ", " << k << "): IDX-DFS found "
                    << dfs_sink.count() << " paths, IDX-JOIN "
                    << join_sink.count() << "\n";
          counts_agree = false;
        }
        // A method that did not complete is the slower one.
        const bool join_won =
            j.counters.completed() &&
            (!d.counters.completed() || j.enumerate_ms < d.enumerate_ms);
        auto_joins += picks_join;
        join_faster += join_won;
        Agreement* set = !inst.calibration ? &held_out
                         : k >= 4 && k <= 6 ? &calibration
                                            : nullptr;
        if (set != nullptr) {
          ++set->queries;
          set->faster_picked += picks_join == join_won;
        }
        if (optimized && both && plan.t_dfs > 0 && plan.t_join > 0 &&
            d.enumerate_ms > 0 && j.enumerate_ms > 0) {
          const double ratio = (j.enumerate_ms / plan.t_join) /
                               (d.enumerate_ms / plan.t_dfs);
          unit_ratios.push_back(ratio);
          if (set != nullptr) set->unit_ratios.push_back(ratio);
        }
      }
      const double n = static_cast<double>(queries.size());
      const std::string of = "/" + std::to_string(queries.size());
      table.AddRow(
          {std::to_string(k), FormatSci(bfs / n), FormatSci(index / n),
           FormatSci(optimize / n), FormatSci(dfs / n), FormatSci(join / n),
           std::to_string(unit_joins) + of, std::to_string(auto_joins) + of,
           std::to_string(join_faster) + of,
           unit_ratios.empty()
               ? "-"
               : FormatFixed(PercentileInPlace(unit_ratios, 50.0))});
    }
    table.Print(std::cout);
  }
  std::cout << "\nkJoinTupleCost (compiled) = " << FormatFixed(kJoinTupleCost)
            << "\n";
  calibration.Print("calibration (ep, up at seed 1, k = 4..6)");
  held_out.Print("held out (ep, up at seed 9001, gg at seed 1, k = 3..8)");
  PrintShapeNote(
      "Expected shape (paper Fig. 17): BFS dominates index construction; "
      "optimization can exceed enumeration for short queries (gg, small "
      "k); the paper's JOIN wins at large k on the heavy graph. In-tree, "
      "block-emitting IDX-DFS costs several times less per Eq. 1 unit than "
      "IDX-JOIN (J/D), and the calibration set's median J/D is "
      "kJoinTupleCost.");
  return counts_agree ? 0 : 1;
}
