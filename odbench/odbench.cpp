// One pass of an end-to-end benchmark workload, measured from outside the
// library. It runs the workload's Worlds one after another on this thread,
// checks every output, and prints its measurements as one JSON line.
// odbench/run.py repeats passes in fresh processes, takes medians and
// prints the benchmark result; odbench/README.md explains the workloads.
//
//   odbench --workload nas|halo|storm --seed N --trace 0|1
//
// With --trace 1 the pass also records sim::Tracer spans and splits host
// time across the Comm calls the workload makes (see HostSplit). Neither
// may change a simulated result: the pass digest covers every virtual
// time and counter, and run.py compares traced and untraced digests.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/nas/common.h"
#include "src/odmpi.h"
#include "src/patterns/patterns.h"

using namespace odmpi;


namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- Seeded generator -------------------------------------------------------
// Every input choice is a pure hash of (seed, coordinates), so sender and
// receiver derive the same message size without talking about it.

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::uint64_t draw(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0,
                   std::uint64_t c = 0) {
  return splitmix(seed ^ splitmix(a ^ splitmix(b ^ splitmix(c))));
}

// --- Host split (traced passes only) -----------------------------------------

enum Tag : int {
  kSetup,     // World construction until every rank has entered the body
  kApp,       // workload code between Comm calls
  kTeardown,  // a rank's finalize after its body, and World destruction
  kBench,     // this benchmark's own bookkeeping: digests, stats, spans
  kIsend,
  kIrecv,
  kWaitAny,
  kWaitAll,
  kRecvAny,
  kSend,
  kAllreduce,
  kBarrier,
  kNumTags,
};
constexpr int kFirstOp = kIsend;
constexpr const char* kTagNames[kNumTags] = {
    "setup",    "app",      "teardown", "bench", "isend",     "irecv",
    "wait_any", "wait_all", "recv_any", "send",  "allreduce", "barrier"};

// One transition clock for the simulation thread. Each Comm-call entry or
// exit, on any fiber, charges the host time since the previous transition
// to the tag that was current and then switches tags, so every host
// nanosecond lands in exactly one tag. A timer scoped to each call would
// count a blocked call's wait again in every fiber that runs meanwhile.
struct HostSplit {
  bool on = false;
  Tag current = kBench;
  Clock::time_point last{};
  double seconds[kNumTags] = {};

  void to(Tag t) {
    if (!on) return;
    const Clock::time_point now = Clock::now();
    seconds[current] += seconds_between(last, now);
    last = now;
    current = t;
  }
};
thread_local HostSplit g_split;
// Tag a rank returns to after a Comm call: kSetup until the last rank has
// entered the body, so setup means the same here as in setup_s.
thread_local Tag g_body_tag = kSetup;

// Per-op call counts and virtual durations. Recorded on every pass, traced
// or not, so both make the same heap allocations: the registration cache
// is keyed by heap address (README, known defects) and must see the same
// malloc history in both.
struct OpLog {
  std::int64_t calls = 0;
  std::vector<double> virt_us;
};
OpLog g_ops[kNumTags];

// --- Outcome and message checks ------------------------------------------------

struct Outcome {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> why;  // first few failures, for the log

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (why.size() < 8) why.push_back(what);
  }
};
Outcome g_out;
std::vector<double> g_msg_us;  // per-message virtual latency samples

// Header every payload starts with; the receiver checks each field.
struct Stamp {
  std::int32_t sender;
  std::int32_t receiver;
  std::int32_t iter;
  std::uint32_t bytes;
  std::uint64_t seed;
  double sent_at;  // sender's Comm::wtime() just before posting the send
};
constexpr std::size_t kStride = 1024;  // a check word every kStride bytes

std::uint64_t fill_word(const Stamp& s, std::size_t off) {
  return draw(s.seed, static_cast<std::uint64_t>(s.sender) << 32 |
                          static_cast<std::uint32_t>(s.iter),
              off);
}

void stamp_payload(std::byte* buf, const Stamp& s) {
  std::memcpy(buf, &s, sizeof s);
  for (std::size_t off = kStride; off + 8 <= s.bytes; off += kStride) {
    const std::uint64_t w = fill_word(s, off);
    std::memcpy(buf + off, &w, 8);
  }
  const std::uint64_t tail = fill_word(s, s.bytes);
  std::memcpy(buf + s.bytes - 8, &tail, 8);
}

// Checks a received payload against what the generator says `sender` sent
// and records its latency.
void receive_payload(const mpi::Comm& c, const std::byte* buf,
                     std::size_t got, int sender, int iter,
                     std::size_t want, std::uint64_t seed) {
  const double now = c.wtime();
  Stamp s{};
  bool ok = got == want && got >= sizeof s;
  if (ok) {
    std::memcpy(&s, buf, sizeof s);
    ok = s.sender == sender && s.receiver == c.rank() && s.iter == iter &&
         s.bytes == want && s.seed == seed;
  }
  for (std::size_t off = kStride; ok && off + 8 <= want; off += kStride) {
    std::uint64_t w = 0;
    std::memcpy(&w, buf + off, 8);
    ok = w == fill_word(s, off);
  }
  if (ok) {
    std::uint64_t tail = 0;
    std::memcpy(&tail, buf + want - 8, 8);
    ok = tail == fill_word(s, want);
  }
  g_out.check(ok, "payload mismatch " + std::to_string(sender) + "->" +
                      std::to_string(c.rank()) + " iter " +
                      std::to_string(iter));
  if (ok) g_msg_us.push_back((now - s.sent_at) * 1e6);
}

// --- Comm calls, timed at the call boundary ------------------------------------

class Mpi {
 public:
  explicit Mpi(const mpi::Comm& c) : c_(c) {}

  mpi::Request isend(const void* buf, std::size_t bytes, int dest,
                     mpi::Tag tag) {
    Call call(c_, kIsend);
    return c_.isend(buf, static_cast<int>(bytes), mpi::kByte, dest, tag);
  }
  mpi::Request irecv(void* buf, std::size_t bytes, int src, mpi::Tag tag) {
    Call call(c_, kIrecv);
    return c_.irecv(buf, static_cast<int>(bytes), mpi::kByte, src, tag);
  }
  std::size_t wait_any(std::vector<mpi::Request>& reqs) {
    Call call(c_, kWaitAny);
    return mpi::wait_any(reqs);
  }
  void wait_all(std::vector<mpi::Request>& reqs) {
    Call call(c_, kWaitAll);
    mpi::wait_all(reqs);
  }
  mpi::MsgStatus recv_any(void* buf, std::size_t bytes, mpi::Tag tag) {
    Call call(c_, kRecvAny);
    return c_.recv(buf, static_cast<int>(bytes), mpi::kByte, mpi::kAnySource,
                   tag);
  }
  void send(const void* buf, std::size_t bytes, int dest, mpi::Tag tag) {
    Call call(c_, kSend);
    c_.send(buf, static_cast<int>(bytes), mpi::kByte, dest, tag);
  }
  double allreduce_sum(double x) {
    Call call(c_, kAllreduce);
    double sum = 0;
    c_.allreduce(&x, &sum, 1, mpi::kDouble, mpi::Op::kSum);
    return sum;
  }
  void barrier() {
    Call call(c_, kBarrier);
    c_.barrier();
  }

 private:
  class Call {
   public:
    Call(const mpi::Comm& c, Tag op) : c_(c), op_(op), v0_(c.wtime()) {
      g_split.to(g_body_tag == kSetup ? kSetup : op);
    }
    ~Call() {
      OpLog& log = g_ops[op_];
      ++log.calls;
      log.virt_us.push_back((c_.wtime() - v0_) * 1e6);
      g_split.to(g_body_tag);
    }
    Call(const Call&) = delete;
    Call& operator=(const Call&) = delete;

   private:
    const mpi::Comm& c_;
    Tag op_;
    double v0_;
  };

  const mpi::Comm& c_;
};

// One round of point-to-point traffic: a message of size_of(me, dst) to
// each of `dests`, one from each of `sources`. Named rounds pre-post an
// irecv per source and complete them with wait_any, so each message's
// latency ends when it completes; wildcard rounds receive by kAnySource.
template <typename SizeOf>
void exchange(Mpi& m, const mpi::Comm& c, const std::vector<int>& dests,
              const std::vector<int>& sources, int iter, mpi::Tag tag,
              bool wildcard, std::uint64_t seed, const SizeOf& size_of,
              std::vector<std::vector<std::byte>>& sbuf,
              std::vector<std::vector<std::byte>>& rbuf) {
  const int me = c.rank();
  std::vector<mpi::Request> recvs;
  std::vector<std::size_t> slot;
  if (!wildcard) {
    for (std::size_t i = 0; i < sources.size(); ++i) {
      recvs.push_back(m.irecv(rbuf[i].data(), rbuf[i].size(), sources[i], tag));
      slot.push_back(i);
    }
  }
  std::vector<mpi::Request> sends;
  for (std::size_t j = 0; j < dests.size(); ++j) {
    const std::size_t bytes = size_of(me, dests[j]);
    stamp_payload(sbuf[j].data(),
                  Stamp{me, dests[j], iter, static_cast<std::uint32_t>(bytes),
                        seed, c.wtime()});
    sends.push_back(m.isend(sbuf[j].data(), bytes, dests[j], tag));
  }
  if (wildcard) {
    std::vector<bool> seen(sources.size(), false);
    for (std::size_t i = 0; i < sources.size(); ++i) {
      const mpi::MsgStatus st = m.recv_any(rbuf[0].data(), rbuf[0].size(), tag);
      const auto it = std::find(sources.begin(), sources.end(), st.source);
      const bool expected =
          it != sources.end() && !seen[static_cast<std::size_t>(it - sources.begin())];
      g_out.check(expected, "unexpected wildcard sender " +
                                std::to_string(st.source));
      if (!expected) continue;
      seen[static_cast<std::size_t>(it - sources.begin())] = true;
      receive_payload(c, rbuf[0].data(), st.count_bytes, st.source, iter,
                      size_of(st.source, me), seed);
    }
  } else {
    while (!recvs.empty()) {
      const std::size_t k = m.wait_any(recvs);
      const std::size_t i = slot[k];
      g_out.check(!recvs[k].failed(), "recv failed");
      const mpi::MsgStatus st = recvs[k].wait();
      receive_payload(c, rbuf[i].data(), st.count_bytes, sources[i], iter,
                      size_of(sources[i], me), seed);
      recvs[k] = std::move(recvs.back());
      recvs.pop_back();
      slot[k] = slot.back();
      slot.pop_back();
    }
  }
  m.wait_all(sends);
  for (const mpi::Request& s : sends) g_out.check(!s.failed(), "send failed");
}

std::vector<std::vector<int>> invert(const std::vector<std::vector<int>>& dests) {
  std::vector<std::vector<int>> sources(dests.size());
  for (std::size_t s = 0; s < dests.size(); ++s) {
    for (int d : dests[s]) sources[static_cast<std::size_t>(d)].push_back(static_cast<int>(s));
  }
  return sources;
}

std::vector<std::vector<std::byte>> buffers(std::size_t count, std::size_t bytes) {
  return std::vector<std::vector<std::byte>>(std::max<std::size_t>(count, 1),
                                             std::vector<std::byte>(bytes));
}

// --- Memory ------------------------------------------------------------------------

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- Trace summary -------------------------------------------------------------------

// Virtual durations (us) of the spans the library records, by layer.
struct TraceSpans {
  std::vector<double> handshake, park, send, recv, allreduce, barrier;
  std::size_t events = 0;
};

// Interned at start-up, in every pass, so interning allocates nothing that
// only a traced pass would.
const sim::Stats::Counter kHandshake = sim::Stats::counter("mpi.conn.handshake");
const sim::Stats::Counter kPark = sim::Stats::counter("mpi.send.park");
const sim::Stats::Counter kSendSpan = sim::Stats::counter("mpi.send");
const sim::Stats::Counter kRecvSpan = sim::Stats::counter("mpi.recv");
const sim::Stats::Counter kArRound = sim::Stats::counter("coll.allreduce.round");
const sim::Stats::Counter kArFold = sim::Stats::counter("coll.allreduce.fold");
const sim::Stats::Counter kBarRound = sim::Stats::counter("coll.barrier.round");
const sim::Stats::Counter kBarFold = sim::Stats::counter("coll.barrier.fold");

void collect_spans(const sim::Tracer& tr, TraceSpans& out) {
  out.events += tr.size();
  for (std::size_t i = 0; i < tr.size(); ++i) {
    const sim::Tracer::Event& e = tr.event(i);
    if (e.ph != 'X' || e.open) continue;
    const double us = static_cast<double>(e.dur) / 1000.0;
    if (e.name == kHandshake) {
      out.handshake.push_back(us);
    } else if (e.name == kPark) {
      out.park.push_back(us);
    } else if (e.name == kSendSpan) {
      out.send.push_back(us);
    } else if (e.name == kRecvSpan) {
      out.recv.push_back(us);
    } else if (e.name == kArRound || e.name == kArFold) {
      out.allreduce.push_back(us);
    } else if (e.name == kBarRound || e.name == kBarFold) {
      out.barrier.push_back(us);
    }
  }
}

// --- Worlds ----------------------------------------------------------------------------

struct WorldRecord {
  std::string label;
  int nranks = 0;
  mpi::RunStatus status = mpi::RunStatus::kOk;
  double host_s = 0;      // construction -> run_job return
  double setup_s = 0;     // construction -> last rank entered the body
  double teardown_s = 0;  // last body exit -> World destroyed
  double rss_mb = 0;      // peak resident set of the pass so far
  std::uint64_t events = 0;
  double virt_s = 0;      // completion time, or the NAS timed section
  mpi::WorldMetrics metrics;
  int vis_open_max = 0;          // most VIs open at once on any rank
  double pinned_peak_kb_max = 0; // most memory pinned by any rank
  std::map<std::string, std::int64_t> stats;
  std::string digest_text;  // every simulated result of this World
};

struct Pass {
  std::string workload;
  std::uint64_t seed = 0;
  bool traced = false;
  std::vector<WorldRecord> worlds;
  Clock::time_point first_construct{};
  Clock::time_point last_return{};
  TraceSpans spans;
};

void digest_add(WorldRecord& w, const std::string& line) {
  w.digest_text += line;
  w.digest_text += '\n';
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (unsigned char ch : s) {
    h ^= ch;
    h *= 0x100000001B3ULL;
  }
  return h;
}

// Runs one World with `body` on every rank and records what it cost on
// both clocks. `body` returns nothing; per-rank results go through captures.
template <typename Body>
WorldRecord& run_world(Pass& pass, const std::string& label, int nranks,
                       mpi::JobOptions opt, const Body& body) {
  opt.trace.enabled = pass.traced;
  WorldRecord rec;
  rec.label = label;
  rec.nranks = nranks;

  g_split.to(kSetup);
  g_body_tag = kSetup;
  const Clock::time_point t0 = Clock::now();
  if (pass.worlds.empty()) pass.first_construct = t0;
  auto world = std::make_unique<mpi::World>(nranks, opt);
  int entered = 0;
  int exited = 0;
  Clock::time_point all_in = t0;
  Clock::time_point last_out = t0;
  const sim::Engine* engine = nullptr;
  const mpi::RunResult result = world->run_job([&](mpi::Comm& c) {
    if (++entered == nranks) {
      all_in = Clock::now();
      g_body_tag = kApp;
      engine = &c.device().cluster().engine();
    }
    g_split.to(g_body_tag);
    body(c);
    g_split.to(kTeardown);
    if (++exited == nranks) last_out = Clock::now();
  });
  const Clock::time_point returned = Clock::now();
  pass.last_return = returned;
  g_split.to(kBench);

  rec.status = result.status;
  g_out.check(result.ok(), label + ": " + result.summary());
  rec.host_s = seconds_between(t0, returned);
  rec.setup_s = seconds_between(t0, all_in);
  rec.events = engine != nullptr ? engine->events_processed() : 0;
  rec.virt_s = sim::to_sec(world->completion_time());
  rec.metrics = world->metrics();
  const sim::Stats stats = world->aggregate_stats();
  rec.stats = stats.all();

  digest_add(rec, "world " + label + " n=" + std::to_string(nranks) +
                       " status=" + mpi::to_string(result.status) +
                       " completion=" +
                       std::to_string(world->completion_time()));
  for (int r = 0; r < nranks; ++r) {
    const mpi::RankReport& rep = world->report(r);
    rec.vis_open_max = std::max(rec.vis_open_max, rep.vis_open_peak);
    rec.pinned_peak_kb_max =
        std::max(rec.pinned_peak_kb_max,
                 static_cast<double>(rep.pinned_bytes_peak) / 1024.0);
    digest_add(rec, "rank " + std::to_string(r) + " init=" +
                         std::to_string(rep.init_time) + " body=" +
                         std::to_string(rep.body_time) + " total=" +
                         std::to_string(rep.total_time) + " vis=" +
                         std::to_string(rep.vis_created) + " peak=" +
                         std::to_string(rep.vis_open_peak) + " conns=" +
                         std::to_string(rep.connections) + " pinned=" +
                         std::to_string(rep.pinned_bytes_peak));
  }
  for (const auto& [name, value] : rec.stats) {
    digest_add(rec, "stat " + name + "=" + std::to_string(value));
  }
  if (pass.traced) collect_spans(world->tracer(), pass.spans);

  rec.rss_mb = peak_rss_mb();
  g_split.to(kTeardown);
  const Clock::time_point destroy = Clock::now();
  world.reset();
  rec.teardown_s = seconds_between(last_out, returned) +
                   seconds_between(destroy, Clock::now());
  g_split.to(kBench);
  pass.worlds.push_back(std::move(rec));
  return pass.worlds.back();
}

mpi::JobOptions job_options(const via::DeviceProfile& profile,
                            mpi::ConnectionModel model, std::uint64_t seed) {
  mpi::JobOptions opt;
  opt.profile = profile;
  opt.device.connection_model = model;
  // The paper measures on-demand under polling (bench/bench_util.h).
  opt.device.wait_policy = mpi::WaitPolicy::polling();
  opt.seed = seed;
  return opt;
}

// --- Workloads ---------------------------------------------------------------------------

// nas: the figure-production path. Fixed cell order in a fresh process:
// the registration-cache counts depend on malloc history (README).
void workload_nas(Pass& pass) {
  struct Cell {
    const char* kernel;
    nas::Class cls;
    int np;
  };
  const Cell cells[] = {{"CG", nas::Class::A, 32},
                        {"MG", nas::Class::B, 16},
                        {"IS", nas::Class::B, 16},
                        {"SP", nas::Class::A, 16},
                        {"BT", nas::Class::A, 16}};
  constexpr int kProbeRounds = 16;
  const std::uint64_t seed = pass.seed;
  int cell_index = 0;
  for (const Cell& cell : cells) {
    const std::string label = std::string(cell.kernel) + "." +
                              nas::to_string(cell.cls) + "." +
                              std::to_string(cell.np);
    double time_sec = 0;
    double checksum = 0;
    int verified = 0;
    const nas::KernelFn kernel = nas::kernel_by_name(cell.kernel);
    WorldRecord& rec = run_world(
        pass, label, cell.np,
        job_options(via::DeviceProfile::clan(),
                    mpi::ConnectionModel::kOnDemand, seed),
        [&](mpi::Comm& c) {
          const nas::KernelResult r = kernel(c, cell.cls);
          if (r.verified) ++verified;
          if (c.rank() == 0) {
            time_sec = r.time_sec;
            checksum = r.checksum;
          }
          // Latency probe: kProbeRounds stamped messages, of seeded eager
          // sizes, to every peer the kernel already connected to. Reusing
          // only open channels keeps the kernel's VI and pinned-memory
          // figures.
          std::vector<int> peers;
          for (int p = 0; p < c.size(); ++p) {
            const mpi::Channel* ch = c.device().find_channel(p);
            if (p != c.rank() && ch != nullptr && ch->connected()) {
              peers.push_back(p);
            }
          }
          auto sbuf = buffers(peers.size(), 4096);
          auto rbuf = buffers(peers.size(), 4096);
          Mpi m(c);
          for (int round = 0; round < kProbeRounds; ++round) {
            const int iter = cell_index * kProbeRounds + round;
            auto size_of = [&](int s, int d) -> std::size_t {
              constexpr std::size_t kSizes[] = {64, 512, 4096};
              return kSizes[draw(seed, static_cast<std::uint64_t>(iter),
                                 static_cast<std::uint64_t>(s),
                                 static_cast<std::uint64_t>(d)) %
                            3];
            };
            exchange(m, c, peers, peers, iter, (1 << 20) + round, false, seed,
                     size_of, sbuf, rbuf);
          }
        });
    g_out.check(verified == cell.np, label + " not verified");
    rec.virt_s = time_sec;
    char line[160];
    std::snprintf(line, sizeof line, "nas %s time=%.17g checksum=%.17g",
                  label.c_str(), time_sec, checksum);
    digest_add(rec, line);
    ++cell_index;
  }
}

// halo: sPPM's 3-D halo on 64 BVIA ranks with a seeded size mix on both
// sides of the eager threshold, seeded wildcard iterations and periodic
// allreduces. No numerics: host time is all sim/via/mpi.
void workload_halo(Pass& pass) {
  constexpr int kRanks = 64;
  constexpr int kIters = 1000;
  constexpr std::size_t kMaxBytes = 32768;
  const std::uint64_t seed = pass.seed;
  std::vector<std::vector<int>> dests;
  for (const std::set<int>& s : patterns::sppm(kRanks)) {
    dests.emplace_back(s.begin(), s.end());
  }
  const std::vector<std::vector<int>> sources = invert(dests);
  run_world(pass, "halo.64", kRanks,
            job_options(via::DeviceProfile::bvia(),
                        mpi::ConnectionModel::kOnDemand, seed),
            [&](mpi::Comm& c) {
              const auto me = static_cast<std::size_t>(c.rank());
              auto sbuf = buffers(dests[me].size(), kMaxBytes);
              auto rbuf = buffers(sources[me].size(), kMaxBytes);
              Mpi m(c);
              for (int iter = 0; iter < kIters; ++iter) {
                // 70% 512 B, 20% 4 KB, 10% 32 KB (rendezvous).
                auto size_of = [&](int s, int d) -> std::size_t {
                  const std::uint64_t u =
                      draw(seed, static_cast<std::uint64_t>(iter),
                           static_cast<std::uint64_t>(s),
                           static_cast<std::uint64_t>(d)) %
                      100;
                  return u < 70 ? 512 : u < 90 ? 4096 : kMaxBytes;
                };
                // One seeded iteration in every four receives by wildcard,
                // never the first of a block: a wildcard receive connects to
                // every peer, and in iteration 0 that work would land in
                // setup_s, before the last rank has entered the body.
                const bool wildcard =
                    static_cast<std::uint64_t>(iter % 4) ==
                    1 + draw(seed, 0x57AB, static_cast<std::uint64_t>(iter / 4)) % 3;
                exchange(m, c, dests[me], sources[me], iter, iter, wildcard,
                         seed, size_of, sbuf, rbuf);
                if (iter % 8 == 7) {
                  const double got =
                      m.allreduce_sum(static_cast<double>(c.rank() + iter));
                  const double want = kRanks * (kRanks - 1) / 2.0 +
                                      static_cast<double>(kRanks) * iter;
                  g_out.check(got == want, "allreduce mismatch");
                }
              }
            });
}

// storm: connection set-up at 256 ranks under the three connection
// models, with per-channel state trimmed so all-pairs static fits in
// memory. credits=4, not the fig8 trim's 1: with one credit a two-rank,
// one-message ping ends kDeadline (README, known defects).
void workload_storm(Pass& pass) {
  constexpr int kRanks = 256;
  constexpr int kPartners = 4;
  constexpr std::size_t kBytes = 64;
  constexpr mpi::Tag kPartnerTag = 7;
  constexpr mpi::Tag kFanInTag = 8;
  const std::uint64_t seed = pass.seed;
  std::vector<std::vector<int>> dests(kRanks);
  for (int r = 0; r < kRanks; ++r) {
    auto& d = dests[static_cast<std::size_t>(r)];
    for (std::uint64_t k = 0; static_cast<int>(d.size()) < kPartners; ++k) {
      const int p = static_cast<int>(
          draw(seed, 0x5707, static_cast<std::uint64_t>(r), k) % kRanks);
      if (p != r && std::find(d.begin(), d.end(), p) == d.end()) d.push_back(p);
    }
  }
  const std::vector<std::vector<int>> sources = invert(dests);
  const struct {
    const char* label;
    mpi::ConnectionModel model;
  } models[] = {{"storm.ondemand", mpi::ConnectionModel::kOnDemand},
                {"storm.static_p2p", mpi::ConnectionModel::kStaticPeerToPeer},
                {"storm.static_tree", mpi::ConnectionModel::kStaticTree}};
  for (const auto& model : models) {
    mpi::JobOptions opt =
        job_options(via::DeviceProfile::clan(), model.model, seed);
    opt.device.credits = 4;
    opt.device.eager_buf_bytes = 256;
    opt.device.lazy_send_pool = true;
    run_world(pass, model.label, kRanks, opt, [&](mpi::Comm& c) {
      const auto me = static_cast<std::size_t>(c.rank());
      auto size_of = [](int, int) { return kBytes; };
      auto sbuf = buffers(dests[me].size(), kBytes);
      auto rbuf = buffers(sources[me].size(), kBytes);
      Mpi m(c);
      exchange(m, c, dests[me], sources[me], 0, kPartnerTag, false, seed,
               size_of, sbuf, rbuf);
      // Fan-in: rank 0 takes one message from every rank by wildcard, the
      // case where a wildcard receive connects to everyone.
      if (me == 0) {
        std::vector<bool> seen(kRanks, false);
        for (int i = 1; i < kRanks; ++i) {
          const mpi::MsgStatus st =
              m.recv_any(rbuf[0].data(), kBytes, kFanInTag);
          const bool fresh = st.source > 0 && st.source < kRanks &&
                             !seen[static_cast<std::size_t>(st.source)];
          g_out.check(fresh, "unexpected fan-in sender");
          if (!fresh) continue;
          seen[static_cast<std::size_t>(st.source)] = true;
          receive_payload(c, rbuf[0].data(), st.count_bytes, st.source, 1,
                          kBytes, seed);
        }
      } else {
        stamp_payload(sbuf[0].data(), Stamp{c.rank(), 0, 1, kBytes, seed,
                                            c.wtime()});
        m.send(sbuf[0].data(), kBytes, 0, kFanInTag);
      }
      m.barrier();
    });
  }
}

// --- Output ------------------------------------------------------------------------------

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

// JSON fragments for the pass record. Keys are fixed identifiers and
// strings never contain quotes or backslashes (see quoted()).
std::string num(double v) {
  char b[40];
  std::snprintf(b, sizeof b, "%.17g", std::isfinite(v) ? v : 0.0);
  return b;
}

std::string quoted(std::string s) {
  std::replace(s.begin(), s.end(), '"', '\'');
  std::replace(s.begin(), s.end(), '\\', '/');
  return '"' + s + '"';
}

class Obj {
 public:
  Obj& add(const std::string& key, const std::string& json) {
    out_ += (out_.size() > 1 ? ",\"" : "\"") + key + "\":" + json;
    return *this;
  }
  Obj& add(const std::string& key, double v) { return add(key, num(v)); }
  [[nodiscard]] std::string done() const { return out_ + '}'; }

 private:
  std::string out_ = "{";
};

std::string samples(const std::vector<double>& v) {
  return Obj()
      .add("n", static_cast<double>(v.size()))
      .add("p50", percentile(v, 0.50))
      .add("p99", percentile(v, 0.99))
      .done();
}

std::string hex(std::uint64_t h) {
  char b[24];
  std::snprintf(b, sizeof b, "%016llx", static_cast<unsigned long long>(h));
  return b;
}

double stat(const WorldRecord& w, const std::string& name) {
  const auto it = w.stats.find(name);
  return it == w.stats.end() ? 0.0 : static_cast<double>(it->second);
}

void print_pass(const Pass& pass) {
  std::vector<double> virt, init;
  double vis = 0, pinned_kb = 0, setup = 0, teardown = 0;
  std::uint64_t events = 0;
  std::map<std::string, std::int64_t> stats;
  std::string worlds = "[";
  std::string all_digests;
  for (const WorldRecord& w : pass.worlds) {
    virt.push_back(w.virt_s);
    init.push_back(w.metrics.mean_init_us);
    vis += w.metrics.mean_peak_vis_per_process;
    pinned_kb += w.metrics.mean_pinned_bytes_peak / 1024.0;
    setup += w.setup_s;
    teardown += w.teardown_s;
    events += w.events;
    for (const auto& [name, value] : w.stats) stats[name] += value;
    if (worlds.size() > 1) worlds += ',';
    worlds += Obj()
                  .add("label", quoted(w.label))
                  .add("nranks", w.nranks)
                  .add("status", quoted(mpi::to_string(w.status)))
                  .add("host_s", w.host_s)
                  .add("setup_s", w.setup_s)
                  .add("teardown_s", w.teardown_s)
                  .add("rss_mb", w.rss_mb)
                  .add("events", static_cast<double>(w.events))
                  .add("virt_s", w.virt_s)
                  .add("init_us", w.metrics.mean_init_us)
                  .add("vis_per_rank", w.metrics.mean_peak_vis_per_process)
                  .add("vis_open_max", w.vis_open_max)
                  .add("pinned_peak_kb_max", w.pinned_peak_kb_max)
                  .add("digest", quoted(hex(fnv1a(w.digest_text))))
                  .add("reg_cache_hits", stat(w, "mpi.reg_cache_hits"))
                  .add("reg_cache_misses", stat(w, "mpi.reg_cache_misses"))
                  .done();
    all_digests += w.digest_text;
  }
  worlds += ']';
  const auto nworlds = static_cast<double>(std::max<std::size_t>(pass.worlds.size(), 1));

  std::string failures = "[";
  for (const std::string& why : g_out.why) {
    if (failures.size() > 1) failures += ',';
    failures += quoted(why);
  }
  failures += ']';

  Obj counters;
  for (const auto& [name, value] : stats) {
    counters.add(name, static_cast<double>(value));
  }
  Obj ops;
  for (int t = kFirstOp; t < kNumTags; ++t) {
    ops.add(kTagNames[t], Obj()
                              .add("calls", static_cast<double>(g_ops[t].calls))
                              .add("host_s", g_split.seconds[t])
                              .add("virt_us", samples(g_ops[t].virt_us))
                              .done());
  }
  Obj split;
  for (int t = 0; t < kFirstOp; ++t) split.add(kTagNames[t], g_split.seconds[t]);
  const TraceSpans& sp = pass.spans;

  Obj out;
  out.add("workload", quoted(pass.workload))
      .add("seed", static_cast<double>(pass.seed))
      .add("traced", pass.traced ? 1 : 0)
      .add("attempted", static_cast<double>(g_out.attempted))
      .add("failed", static_cast<double>(g_out.failed))
      .add("failures", failures)
      .add("digest", quoted(hex(fnv1a(all_digests))))
      .add("host_s", seconds_between(pass.first_construct, pass.last_return))
      .add("setup_s", setup)
      .add("teardown_s", teardown)
      .add("rss_peak_mb", peak_rss_mb())
      .add("events", static_cast<double>(events))
      .add("virt_s_geomean", geomean(virt))
      .add("virt_init_us", geomean(init))
      .add("vis_per_rank", vis / nworlds)
      .add("pinned_kb_per_rank", pinned_kb / nworlds)
      .add("msg_virt_us", samples(g_msg_us))
      .add("worlds", worlds)
      .add("stats", counters.done())
      .add("ops", ops.done())
      .add("split", split.done())
      .add("spans", Obj()
                        .add("events", static_cast<double>(sp.events))
                        .add("handshake", samples(sp.handshake))
                        .add("park", samples(sp.park))
                        .add("send", samples(sp.send))
                        .add("recv", samples(sp.recv))
                        .add("allreduce", samples(sp.allreduce))
                        .add("barrier", samples(sp.barrier))
                        .done());
  std::printf("%s\n", out.done().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::stoull(value);
    } else if (flag == "--trace") {
      trace = std::stoi(value);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  Pass pass;
  pass.workload = workload;
  pass.seed = seed;
  pass.traced = trace != 0;
  g_split.on = pass.traced;
  g_split.last = Clock::now();
  if (workload == "nas") {
    workload_nas(pass);
  } else if (workload == "halo") {
    workload_halo(pass);
  } else if (workload == "storm") {
    workload_storm(pass);
  } else {
    std::fprintf(stderr,
                 "usage: odbench --workload nas|halo|storm --seed N "
                 "--trace 0|1\n");
    return 2;
  }
  g_split.to(kBench);
  print_pass(pass);
  return g_out.failed == 0 ? 0 : 1;
}
