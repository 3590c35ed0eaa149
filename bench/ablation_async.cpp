// Ablation: when does dropping the barrier pay?
//
// The design choice under test (DESIGN.md §13): the asynchronous driver
// lets each worker push its delta the moment its cycle lands, bounded by a
// staleness window, instead of joining the synchronous Reduce.  This bench
// races the two drivers to a target duality gap under three regimes —
// fault-free, a moderate (2x) permanent straggler, a severe (4x) one — and
// then runs an eviction scenario the synchronous arm cannot survive: the
// crashed worker exhausts its restart budget and freezes its partition,
// while the elastic asynchronous arm admits a replacement mid-run.
//
// Expected shape (honest, measured): synchronous BSP wins the clean
// compute-bound race (the no-barrier tax: per-delta line search is myopic
// next to sync's summed pre-cancelled direction), async wins under the
// moderate straggler (pushes land inside the staleness window while sync
// burns its grace deadline every round), the severe straggler is a wash
// (sync's deadline + late-delta path is itself an asynchrony valve), and
// only the elastic arm reaches the target at all after an eviction.
#include "bench_common.hpp"

#include <cmath>

#include "cluster/async_solver.hpp"
#include "cluster/dist_solver.hpp"

namespace {

using namespace tpa;

cluster::FaultEvent crash_at(int epoch, int worker) {
  cluster::FaultEvent event;
  event.epoch = epoch;
  event.worker = worker;
  event.kind = cluster::FaultKind::kCrash;
  return event;
}

cluster::FaultEvent permanent_stall(int worker, double factor) {
  cluster::FaultEvent event;
  event.epoch = 1;
  event.worker = worker;
  event.kind = cluster::FaultKind::kStall;
  event.stall_factor = factor;
  event.permanent = true;
  return event;
}

struct Scenario {
  std::string name;
  cluster::FaultConfig faults;
};

struct ArmResult {
  double seconds = 0.0;
  bool reached = false;
  int rounds = 0;
  double final_gap = 0.0;
  long long damped = 0;
  long long misses = 0;
};

ArmResult summarize(const core::ConvergenceTrace& trace, double eps,
                    int rounds) {
  ArmResult result;
  const auto [seconds, reached] = bench::time_to_gap(trace, eps);
  result.seconds = seconds;
  result.reached = reached;
  result.rounds = rounds;
  result.final_gap = trace.final_gap();
  result.damped =
      static_cast<long long>(trace.count_events(core::ClusterEventKind::kStaleDamped)) +
      static_cast<long long>(trace.count_events(core::ClusterEventKind::kStaleRejected));
  result.misses = static_cast<long long>(
      trace.count_events(core::ClusterEventKind::kDeadlineMiss));
  return result;
}

void add_row(util::Table& table, const std::string& scenario,
             const std::string& arm, const char* mode, const ArmResult& r) {
  table.begin_row();
  table.add_cell(scenario);
  table.add_cell(arm);
  table.add_cell(mode);
  table.add_cell(r.reached ? "yes" : "NO");
  table.add_number(r.seconds);
  table.add_integer(r.rounds);
  table.add_number(r.final_gap);
  table.add_integer(r.damped);
  table.add_integer(r.misses);
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser parser("ablation_async",
                         "sync barrier vs bounded-staleness async, "
                         "time-to-gap under stragglers and evictions");
  bench::add_common_options(parser);
  parser.add_option("workers", "simulated workers", "4");
  parser.add_option("target-gap", "duality gap both arms race to", "1e-4");
  parser.add_option("max-rounds", "round budget per arm", "200");
  if (!parser.parse(argc, argv)) return 1;
  auto options = bench::read_common_options(parser);
  const int workers = static_cast<int>(parser.get_int("workers", 4));
  const double target = parser.get_double("target-gap", 1e-4);
  const int max_rounds = static_cast<int>(parser.get_int("max-rounds", 200));

  const auto dataset = bench::make_webspam(options);

  core::RunOptions run;
  run.max_epochs = max_rounds;
  run.target_gap = target;
  run.gap_every = 1;

  const std::vector<Scenario> scenarios = {
      {"fault-free", {}},
      {"straggler 2x", [] {
         cluster::FaultConfig f;
         f.scripted.push_back(permanent_stall(0, 2.0));
         return f;
       }()},
      {"straggler 4x", [] {
         cluster::FaultConfig f;
         f.scripted.push_back(permanent_stall(0, 4.0));
         return f;
       }()},
  };
  const std::vector<
      std::pair<const char*, cluster::AggregationMode>>
      modes = {{"averaging", cluster::AggregationMode::kAveraging},
               {"adaptive", cluster::AggregationMode::kAdaptive}};

  std::cout << "\n== simulated time to gap <= " << target << ", K = "
            << workers << " (dual) ==\n";
  util::Table table({"scenario", "arm", "gamma", "reached", "sim s", "rounds",
                     "final gap", "stale", "miss"});
  for (const auto& scenario : scenarios) {
    for (const auto& [mode_name, mode] : modes) {
      // One configuration drives both arms; only the scheduler differs.
      cluster::ClusterConfig config;
      config.formulation = core::Formulation::kDual;
      config.num_workers = workers;
      config.aggregation = mode;
      config.local_solver.kind = core::SolverKind::kSequential;
      config.lambda = options.lambda;
      config.faults = scenario.faults;
      {
        cluster::DistributedSolver solver(dataset,
                                          cluster::DistConfig(config));
        const auto trace = cluster::run_distributed(solver, run);
        add_row(table, scenario.name, "sync", mode_name,
                summarize(trace, target, solver.current_epoch()));
      }
      {
        cluster::AsyncSolver solver(dataset, cluster::AsyncConfig(config));
        const auto trace = cluster::run_async(solver, run);
        add_row(table, scenario.name, "async", mode_name,
                summarize(trace, target, solver.current_epoch()));
      }
    }
  }
  bench::emit(table, options);

  // Eviction drill: worker 1 crashes every time it comes back from backoff
  // until it exhausts its restart budget.  The synchronous arm freezes that
  // partition forever; the elastic asynchronous arm admits a replacement at
  // round 8.  (Crashes are scripted across rounds 1-4 because a worker in
  // backoff skips the round — a crash scripted there never fires.)
  std::cout << "\n== eviction drill: crash w1 until evicted, max_restarts = 1 "
               "==\n";
  util::Table drill({"arm", "reached", "sim s", "rounds", "final gap",
                     "evictions", "joins"});
  const auto drill_row = [&](const char* name,
                             const core::ConvergenceTrace& trace, int rounds,
                             double target_gap) {
    const auto [seconds, reached] = bench::time_to_gap(trace, target_gap);
    drill.begin_row();
    drill.add_cell(name);
    drill.add_cell(reached ? "yes" : "NO");
    drill.add_number(seconds);
    drill.add_integer(rounds);
    drill.add_number(trace.final_gap());
    drill.add_integer(static_cast<long long>(
        trace.count_events(core::ClusterEventKind::kEvict)));
    drill.add_integer(static_cast<long long>(
        trace.count_events(core::ClusterEventKind::kJoin)));
  };
  cluster::ClusterConfig drill_config;
  drill_config.formulation = core::Formulation::kDual;
  drill_config.num_workers = workers;
  drill_config.aggregation = cluster::AggregationMode::kAveraging;
  drill_config.local_solver.kind = core::SolverKind::kSequential;
  drill_config.lambda = options.lambda;
  drill_config.max_restarts = 1;
  for (int round = 1; round <= 4; ++round) {
    drill_config.faults.scripted.push_back(crash_at(round, 1));
  }
  {
    cluster::DistributedSolver solver(dataset,
                                      cluster::DistConfig(drill_config));
    const auto trace = cluster::run_distributed(solver, run);
    drill_row("sync (frozen)", trace, solver.current_epoch(), target);
  }
  {
    cluster::AsyncConfig config(drill_config);
    cluster::MembershipEvent join;
    join.kind = cluster::MembershipEvent::Kind::kJoin;
    join.round = 8;
    join.worker = 1;
    config.membership.push_back(join);
    cluster::AsyncSolver solver(dataset, config);
    const auto trace = cluster::run_async(solver, run);
    drill_row("async (elastic)", trace, solver.current_epoch(), target);
  }
  bench::emit(drill, options);

  std::cout << "\nnote: the clean-run gap between sync and async is the "
               "no-barrier tax — each async delta is line-searched against "
               "the master state alone, while the barrier lets sync cancel "
               "opposing coordinate moves before picking one step.  The "
               "moderate straggler flips the ordering: its pushes land near "
               "the staleness-window boundary undamped, while the sync "
               "master eats the grace deadline every round.  A severe "
               "straggler re-levels the race (sync's deadline-miss path is "
               "itself a pressure valve), and only the elastic arm survives "
               "an eviction with the full model still reachable.\n";
  return 0;
}
