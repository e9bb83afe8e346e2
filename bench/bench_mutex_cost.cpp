// Experiment E5 — Fan–Lynch total work (deck part II): canonical-execution
// cost of mutual exclusion algorithms in the cache-coherent / non-busy-
// waiting measure. The tournament (Yang–Anderson structure) tracks the
// Theta(n log n) tight bound; Peterson's rescanning waiting condition pays
// polynomially more; bakery sits in between at Theta(n^2).
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <memory>

#include "mutex/bakery.hpp"
#include "mutex/burns_lynch.hpp"
#include "mutex/canonical.hpp"
#include "mutex/peterson.hpp"
#include "mutex/tournament.hpp"
#include "obs/metrics.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace tsb;

namespace {

std::int64_t worst_over_seeds(const mutex::MutexAlgorithm& alg, int seeds) {
  std::int64_t worst = 0;
  for (int s = 1; s <= seeds; ++s) {
    mutex::CanonicalOptions opts;
    opts.strategy = mutex::CanonicalOptions::Strategy::kRandomized;
    opts.seed = static_cast<std::uint64_t>(s);
    const auto r = run_canonical(alg, opts);
    if (r.completed) worst = std::max(worst, r.rmr_cost);
  }
  return worst;
}

std::int64_t contended(const mutex::MutexAlgorithm& alg) {
  mutex::CanonicalOptions opts;
  opts.strategy = mutex::CanonicalOptions::Strategy::kRoundRobin;
  const auto r = run_canonical(alg, opts);
  return r.completed ? r.rmr_cost : -1;
}

std::int64_t sequential(const mutex::MutexAlgorithm& alg) {
  mutex::CanonicalOptions opts;
  opts.strategy = mutex::CanonicalOptions::Strategy::kSequential;
  const auto r = run_canonical(alg, opts);
  return r.completed ? r.rmr_cost : -1;
}

}  // namespace

int main(int argc, char** argv) {
  const int max_n = argc > 1 ? std::atoi(argv[1]) : 64;
  const int seeds = 8;

  std::cout
      << "E5: canonical-execution cost (every process enters the CS once),\n"
      << "cache-coherent RMR measure = non-busy-waiting memory accesses.\n"
      << "Columns: seq = contention-free, rr = round-robin contention,\n"
      << "worst = max over " << seeds << " random schedules.\n\n";

  util::Table table({"n", "n log2 n", "log2(n!)", "peterson seq",
                     "peterson rr", "peterson worst", "bakery rr",
                     "tournament rr", "tournament worst"});

  std::vector<double> log_n, log_pet, log_tour;
  for (int n = 2; n <= max_n; n *= 2) {
    mutex::PetersonMutex peterson(n);
    mutex::BakeryMutex bakery(n);
    mutex::TournamentMutex tournament(n);

    const auto pet_rr = contended(peterson);
    const auto tour_rr = contended(tournament);
    table.row(n, static_cast<double>(n) * std::log2(n),
              util::log2_factorial(n), sequential(peterson), pet_rr,
              worst_over_seeds(peterson, seeds), contended(bakery), tour_rr,
              worst_over_seeds(tournament, seeds));
    if (n >= 4) {
      log_n.push_back(std::log2(n));
      log_pet.push_back(std::log2(static_cast<double>(pet_rr)));
      log_tour.push_back(std::log2(static_cast<double>(tour_rr)));
    }
  }
  table.print(std::cout, "canonical-execution RMR cost");

  const auto pet_fit = util::fit_line(log_n, log_pet);
  const auto tour_fit = util::fit_line(log_n, log_tour);
  std::cout << "growth exponents (log-log slope of the rr column):\n"
            << "  peterson   ~ n^" << pet_fit.slope
            << "  (r2 = " << pet_fit.r_squared << ")\n"
            << "  tournament ~ n^" << tour_fit.slope
            << "  (r2 = " << tour_fit.r_squared << ", Theta(n log n) "
            << "shows up as an exponent slightly above 1)\n\n"
            << "Reading: the Omega(n log n) lower bound (log2(n!) column)\n"
            << "sits below the tournament's cost, which grows like\n"
            << "n log n — the bound is tight, as Yang–Anderson showed.\n"
            << "Peterson's waiting condition rescans the level array, so\n"
            << "its contended cost grows polynomially faster.\n";
  std::cout << "\nE5b: Burns-Lynch covering — any deadlock-free mutex uses\n"
            << "at least n registers; the adversary drives n processes to\n"
            << "cover n distinct registers (and catches the broken\n"
            << "NaiveLock entering the CS invisibly).\n\n";
  util::Table bl({"algorithm", "n", "registers", "covered", "bound n",
                  "complete", "invisible entrant"});
  for (int n : {2, 4, 8, 16}) {
    mutex::PetersonMutex peterson(n);
    mutex::TournamentMutex tournament(n);
    mutex::BakeryMutex bakery(n);
    mutex::NaiveLock naive(n);
    for (const mutex::MutexAlgorithm* alg :
         {static_cast<const mutex::MutexAlgorithm*>(&peterson),
          static_cast<const mutex::MutexAlgorithm*>(&tournament),
          static_cast<const mutex::MutexAlgorithm*>(&bakery),
          static_cast<const mutex::MutexAlgorithm*>(&naive)}) {
      mutex::MutexCoveringAdversary adversary(*alg);
      const auto r = adversary.run();
      bl.row(alg->name(), n, alg->num_registers(), r.distinct_registers, n,
             r.complete,
             r.invisible_entrant >= 0
                 ? 'p' + std::to_string(r.invisible_entrant)
                 : std::string("-"));
    }
  }
  bl.print(std::cout, "Burns-Lynch covering (origin of the technique)");
  obs::emit_metrics("bench_mutex_cost");
  return 0;
}
