#include "sim/metrics.hpp"

#include <algorithm>
#include <sstream>

#include "util/binary_io.hpp"

namespace hinet {

double total_energy(const SimMetrics& m, const EnergyModel& e) {
  double energy = e.idle_per_round * static_cast<double>(m.rounds_executed) *
                  static_cast<double>(m.per_node_tx_tokens.size());
  for (std::size_t v = 0; v < m.per_node_tx_tokens.size(); ++v) {
    energy += e.tx_per_token * static_cast<double>(m.per_node_tx_tokens[v]);
    energy += e.rx_per_token * static_cast<double>(m.per_node_rx_tokens[v]);
  }
  return energy;
}

double max_node_energy(const SimMetrics& m, const EnergyModel& e) {
  double worst = 0.0;
  for (std::size_t v = 0; v < m.per_node_tx_tokens.size(); ++v) {
    const double node =
        e.idle_per_round * static_cast<double>(m.rounds_executed) +
        e.tx_per_token * static_cast<double>(m.per_node_tx_tokens[v]) +
        e.rx_per_token * static_cast<double>(m.per_node_rx_tokens[v]);
    worst = std::max(worst, node);
  }
  return worst;
}

double SimMetrics::completion_fraction() const {
  const std::size_t n = per_node_tx_tokens.size();
  if (n == 0) return 0.0;
  return static_cast<double>(complete_nodes_final) / static_cast<double>(n);
}

double SimMetrics::token_coverage() const {
  if (per_node_tokens_known.empty() || token_universe == 0) return 0.0;
  std::size_t known = 0;
  for (std::size_t c : per_node_tokens_known) known += c;
  return static_cast<double>(known) /
         static_cast<double>(per_node_tokens_known.size() * token_universe);
}

std::string SimMetrics::to_string() const {
  std::ostringstream os;
  os << "rounds=" << rounds_executed << " packets=" << packets_sent
     << " tokens_sent=" << tokens_sent << " completed="
     << (all_delivered ? std::to_string(rounds_to_completion) : "never");
  if (!all_delivered && !per_node_tx_tokens.empty()) {
    os << " completion=" << completion_fraction()
       << " coverage=" << token_coverage();
  }
  return os.str();
}

void save_metrics(ByteWriter& w, const SimMetrics& m) {
  w.u64(m.rounds_executed);
  w.u64(m.packets_sent);
  w.u64(m.tokens_sent);
  w.u64(m.rounds_to_completion);
  w.u8(m.all_delivered ? 1 : 0);
  w.vec_size(m.tokens_sent_per_round);
  w.vec_size(m.complete_nodes_per_round);
  w.vec_size(m.per_node_tx_tokens);
  w.vec_size(m.per_node_rx_tokens);
  w.u64(m.token_universe);
  w.u64(m.complete_nodes_final);
  w.vec_size(m.per_node_tokens_known);
}

SimMetrics load_metrics(ByteReader& r) {
  SimMetrics m;
  m.rounds_executed = r.u64();
  m.packets_sent = r.u64();
  m.tokens_sent = r.u64();
  m.rounds_to_completion = r.u64();
  m.all_delivered = r.u8() != 0;
  m.tokens_sent_per_round = r.vec_size();
  m.complete_nodes_per_round = r.vec_size();
  m.per_node_tx_tokens = r.vec_size();
  m.per_node_rx_tokens = r.vec_size();
  m.token_universe = r.u64();
  m.complete_nodes_final = r.u64();
  m.per_node_tokens_known = r.vec_size();
  return m;
}

}  // namespace hinet
