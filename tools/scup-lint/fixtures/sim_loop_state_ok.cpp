// Fixture: the serial loop commits its own state — sequence counter,
// metrics, the Notary sign log — with no region markers or annotations,
// and no rule may fire on it anywhere in src/sim/.

void commit(Sim& sim_) {
  sim_.next_seq_ += 1;
  sim_.metrics_.messages_sent += 1;
  sim_.notary_.sign(0, 0);
}
