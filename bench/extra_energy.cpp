// Extension — energy-aware partitioning (related work [30], Wang & Ren):
// for Algorithm 2, sweep the threshold and report the time-optimal, the
// energy-optimal, and the EDP-optimal splits under the reference power
// model.  Energy prefers narrower GPU shares than time does whenever the
// GPU's marginal speedup no longer covers its 235 W draw.
#include <cstdio>

#include "bench/bench_common.hpp"
#include "exp/report.hpp"
#include "hetalg/hetero_spmm.hpp"
#include "hetsim/energy.hpp"

int main(int argc, char** argv) {
  using namespace nbwp;
  Cli cli("extra_energy", "time- vs energy-optimal thresholds (Alg 2)");
  bench::add_suite_options(cli);
  if (!cli.parse(argc, argv)) return 0;
  const auto options = bench::suite_options(cli);
  const auto& platform = hetsim::Platform::reference();
  const auto& power = hetsim::kReferencePower;

  Table table("Time vs energy optima on Algorithm 2");
  table.set_header({"dataset", "t* time", "t* energy", "t* EDP",
                    "time@t_time (ms)", "time@t_energy (ms)",
                    "E@t_time (J)", "E@t_energy (J)"});
  for (const char* name : {"cant", "pwtk", "webbase-1M", "qcd5_4"}) {
    const auto& spec = datasets::spec_by_name(name);
    const hetalg::HeteroSpmm problem(exp::load_matrix(spec, options),
                                     platform);
    double best_t_time = 0, best_time = -1;
    double best_t_energy = 0, best_energy = -1;
    double best_t_edp = 0, best_edp = -1;
    for (double t = 0; t <= 100; ++t) {
      const auto times =
          hetalg::spmm_kway_times(platform, problem.structure_at(t));
      const double makespan = times.total_ns();
      const double energy = hetsim::energy_joules(
          power, times.device_ns[0], times.device_ns[1], makespan);
      const double edp = hetsim::energy_delay(
          power, times.device_ns[0], times.device_ns[1], makespan);
      if (best_time < 0 || makespan < best_time) {
        best_time = makespan;
        best_t_time = t;
      }
      if (best_energy < 0 || energy < best_energy) {
        best_energy = energy;
        best_t_energy = t;
      }
      if (best_edp < 0 || edp < best_edp) {
        best_edp = edp;
        best_t_edp = t;
      }
    }
    auto energy_at = [&](double t) {
      const auto times =
          hetalg::spmm_kway_times(platform, problem.structure_at(t));
      return hetsim::energy_joules(power, times.device_ns[0],
                                   times.device_ns[1], times.total_ns());
    };
    table.add_row({name, Table::num(best_t_time, 0),
                   Table::num(best_t_energy, 0), Table::num(best_t_edp, 0),
                   Table::ns_to_ms(problem.time_ns(best_t_time)),
                   Table::ns_to_ms(problem.time_ns(best_t_energy)),
                   Table::num(energy_at(best_t_time), 2),
                   Table::num(energy_at(best_t_energy), 2)});
  }
  exp::emit(table);
  bench::finish_run(cli, "extra_energy");
  return 0;
}
