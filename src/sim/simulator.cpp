#include "sim/simulator.hpp"

#include <cassert>
#include <deque>
#include <stdexcept>

#include "obs/obs.hpp"
#include "sim/event_queue.hpp"

namespace tags::sim {

namespace {

struct Job {
  double demand;        ///< total service requirement
  double arrival_time;  ///< first entry into the system
};

/// Poisson or 2-state MMPP interarrival sampling.
class ArrivalProcess {
 public:
  ArrivalProcess(double lambda, const std::optional<MmppArrivals>& mmpp)
      : lambda_(lambda), mmpp_(mmpp) {}

  double next_gap(Rng& rng) {
    if (!mmpp_) return rng.exponential(lambda_);
    // Competing exponentials: in phase p the next arrival (rate lambda_p)
    // races the phase switch; iterate until an arrival happens.
    double gap = 0.0;
    for (;;) {
      const double rate = phase_ == 0 ? mmpp_->lambda0 : mmpp_->lambda1;
      const double sw = phase_ == 0 ? mmpp_->r01 : mmpp_->r10;
      const double total = rate + sw;
      gap += rng.exponential(total);
      if (rng.uniform() * total < rate) return gap;
      phase_ = 1 - phase_;
    }
  }

 private:
  double lambda_;
  std::optional<MmppArrivals> mmpp_;
  int phase_ = 0;
};

/// Shared measurement plumbing.
struct Collector {
  Collector(std::size_t n_nodes, double warmup, std::vector<double> buckets)
      : warmup_time(warmup),
        queue_avg(n_nodes),
        busy_avg(n_nodes),
        bucket_bounds(std::move(buckets)),
        bucket_sum(bucket_bounds.size() + (bucket_bounds.empty() ? 0 : 1), 0.0),
        bucket_n(bucket_sum.size(), 0) {}

  double warmup_time;
  bool recording = false;
  BatchMeans response{2000};
  BatchMeans slowdown{2000};
  std::uint64_t completed = 0, lost = 0, arrivals = 0;
  std::vector<TimeAverage> queue_avg;
  std::vector<TimeAverage> busy_avg;
  std::vector<double> bucket_bounds;
  std::vector<double> bucket_sum;
  std::vector<std::uint64_t> bucket_n;
  double record_start = 0.0;

  void maybe_start(double now, const std::vector<unsigned>& lengths) {
    if (!recording && now >= warmup_time) {
      recording = true;
      record_start = now;
      for (std::size_t i = 0; i < lengths.size(); ++i) {
        queue_avg[i].set(now, lengths[i]);
        busy_avg[i].set(now, lengths[i] > 0 ? 1.0 : 0.0);
      }
    }
  }
  void on_queue_change(double now, std::size_t node, unsigned len) {
    if (!recording) return;
    queue_avg[node].set(now, len);
    busy_avg[node].set(now, len > 0 ? 1.0 : 0.0);
  }
  void on_completion(double now, const Job& job) {
    if (!recording) return;
    ++completed;
    const double resp = now - job.arrival_time;
    response.add(resp);
    const double sd = resp / job.demand;
    slowdown.add(sd);
    if (!bucket_bounds.empty()) {
      std::size_t idx = 0;
      while (idx < bucket_bounds.size() && job.demand > bucket_bounds[idx]) ++idx;
      bucket_sum[idx] += sd;
      ++bucket_n[idx];
    }
  }

  SimResults finish(double now) {
    SimResults r;
    r.mean_queue.resize(queue_avg.size());
    r.utilisation.resize(queue_avg.size());
    for (std::size_t i = 0; i < queue_avg.size(); ++i) {
      queue_avg[i].close(now);
      busy_avg[i].close(now);
      r.mean_queue[i] = queue_avg[i].average();
      r.utilisation[i] = busy_avg[i].average();
      r.mean_total_queue += r.mean_queue[i];
    }
    r.mean_response = response.mean();
    r.response_ci = response.ci_halfwidth();
    r.mean_slowdown = slowdown.mean();
    r.slowdown_ci = slowdown.ci_halfwidth();
    r.completed = completed;
    r.lost = lost;
    r.arrivals = arrivals;
    const double span = now - record_start;
    r.throughput = span > 0.0 ? static_cast<double>(completed) / span : 0.0;
    r.loss_rate = span > 0.0 ? static_cast<double>(lost) / span : 0.0;
    r.loss_fraction =
        arrivals > 0 ? static_cast<double>(lost) / static_cast<double>(arrivals) : 0.0;
    r.bucket_count = bucket_n;
    r.bucket_mean_slowdown.resize(bucket_sum.size(), 0.0);
    for (std::size_t i = 0; i < bucket_sum.size(); ++i) {
      if (bucket_n[i] > 0) {
        r.bucket_mean_slowdown[i] = bucket_sum[i] / static_cast<double>(bucket_n[i]);
      }
    }
    return r;
  }
};

}  // namespace

SimResults simulate_tags(const TagsSimParams& p) {
  const std::size_t n_nodes = p.buffers.size();
  if (n_nodes < 1 || p.timeouts.size() != n_nodes - 1) {
    throw std::invalid_argument("simulate_tags: buffers/timeouts sizes inconsistent");
  }
  Rng rng(p.seed);
  Collector col(n_nodes, p.horizon * p.warmup_fraction, p.slowdown_buckets);

  struct Departure {
    std::size_t node;
    bool success;  ///< head completes here vs times out to the next node
  };
  struct EventPayload {
    bool is_arrival;
    Departure dep;
  };
  EventQueue<EventPayload> calendar;

  std::vector<std::deque<Job>> queue(n_nodes);
  std::vector<unsigned> lengths(n_nodes, 0);
  std::vector<bool> busy(n_nodes, false);

  double now = 0.0;

  // Start serving the head of `node`, scheduling its departure. Real TAGS:
  // the node serves the job from scratch; it succeeds iff its demand fits
  // within this node's (sampled) timeout; the final node has no timeout.
  const auto start_head = [&](std::size_t node) {
    assert(!queue[node].empty() && !busy[node]);
    busy[node] = true;
    const Job& job = queue[node].front();
    double occupancy;
    bool success;
    if (node + 1 == n_nodes) {
      occupancy = job.demand;
      success = true;
    } else {
      const double theta =
          sample(p.timeouts[node], rng) * p.dynamic_timeout.scale(lengths[node]);
      if (job.demand <= theta) {
        occupancy = job.demand;
        success = true;
      } else {
        occupancy = theta;
        success = false;
      }
    }
    calendar.schedule(now + occupancy, {false, {node, success}});
  };

  const auto push_job = [&](std::size_t node, Job job) {
    if (lengths[node] >= p.buffers[node]) {
      if (col.recording) ++col.lost;
      return;
    }
    queue[node].push_back(job);
    ++lengths[node];
    col.on_queue_change(now, node, lengths[node]);
    if (!busy[node]) start_head(node);
  };

  const obs::Span span("sim/tags");
  const std::uint64_t obs_start_ns = obs::now_ns();
  std::uint64_t n_events = 0;
  static obs::Histogram depth_hist("sim.tags.queue_depth",
                                   obs::Histogram::linear_bounds(0.0, 64.0, 32));

  ArrivalProcess arrivals(p.lambda, p.mmpp);
  calendar.schedule(arrivals.next_gap(rng), {true, {}});
  while (!calendar.empty() && calendar.top().time <= p.horizon) {
    const auto ev = calendar.pop();
    now = ev.time;
    col.maybe_start(now, lengths);
    ++n_events;
    if ((n_events & 1023) == 0 && obs::metrics_on()) {
      unsigned total = 0;
      for (const unsigned l : lengths) total += l;
      depth_hist.observe(static_cast<double>(total));
      if (obs::tracing_on() && (n_events & 65535) == 0) {
        obs::TraceEvent tev;
        tev.name = "sim.progress";
        tev.num.emplace_back("events", static_cast<double>(n_events));
        tev.num.emplace_back("sim_time", now);
        tev.num.emplace_back("total_queue", static_cast<double>(total));
        obs::emit(std::move(tev));
      }
    }
    if (ev.payload.is_arrival) {
      if (col.recording) ++col.arrivals;
      push_job(0, Job{sample(p.service, rng), now});
      calendar.schedule(now + arrivals.next_gap(rng), {true, {}});
    } else {
      const auto [node, success] = ev.payload.dep;
      Job job = queue[node].front();
      queue[node].pop_front();
      --lengths[node];
      busy[node] = false;
      col.on_queue_change(now, node, lengths[node]);
      if (success) {
        col.on_completion(now, job);
      } else {
        push_job(node + 1, job);  // restart from scratch downstream
      }
      if (!queue[node].empty()) start_head(node);
    }
  }
  if (obs::metrics_on()) {
    obs::count("sim.tags.runs");
    obs::count("sim.tags.events", n_events);
    const double wall_s = static_cast<double>(obs::now_ns() - obs_start_ns) / 1e9;
    obs::gauge_set("sim.tags.last_events_per_sec",
                   wall_s > 0.0 ? static_cast<double>(n_events) / wall_s : 0.0);
  }
  return col.finish(std::min(now, p.horizon));
}

SimResults simulate_dispatch(const DispatchSimParams& p) {
  Rng rng(p.seed);
  Collector col(p.n_queues, p.horizon * p.warmup_fraction, p.slowdown_buckets);

  struct EventPayload {
    bool is_arrival;
    std::size_t queue_idx;
  };
  EventQueue<EventPayload> calendar;

  std::vector<std::deque<Job>> queue(p.n_queues);
  std::vector<unsigned> lengths(p.n_queues, 0);
  std::vector<double> remaining(p.n_queues, 0.0);
  std::vector<bool> busy(p.n_queues, false);
  RouterState router;

  double now = 0.0;

  const auto start_head = [&](std::size_t qi) {
    assert(!queue[qi].empty() && !busy[qi]);
    busy[qi] = true;
    calendar.schedule(now + queue[qi].front().demand, {false, qi});
  };

  const obs::Span span("sim/dispatch");
  const std::uint64_t obs_start_ns = obs::now_ns();
  std::uint64_t n_events = 0;
  static obs::Histogram depth_hist("sim.dispatch.queue_depth",
                                   obs::Histogram::linear_bounds(0.0, 64.0, 32));

  ArrivalProcess arrivals(p.lambda, p.mmpp);
  calendar.schedule(arrivals.next_gap(rng), {true, 0});
  while (!calendar.empty() && calendar.top().time <= p.horizon) {
    const auto ev = calendar.pop();
    now = ev.time;
    col.maybe_start(now, lengths);
    ++n_events;
    if ((n_events & 1023) == 0 && obs::metrics_on()) {
      unsigned total = 0;
      for (const unsigned l : lengths) total += l;
      depth_hist.observe(static_cast<double>(total));
    }
    if (ev.payload.is_arrival) {
      if (col.recording) ++col.arrivals;
      const Job job{sample(p.service, rng), now};
      std::vector<QueueView> views(p.n_queues);
      for (std::size_t i = 0; i < p.n_queues; ++i) {
        views[i] = {lengths[i], p.buffer, remaining[i]};
      }
      const int pick = route(p.policy, views, router, rng);
      if (pick < 0) {
        if (col.recording) ++col.lost;
      } else {
        const auto qi = static_cast<std::size_t>(pick);
        queue[qi].push_back(job);
        ++lengths[qi];
        remaining[qi] += job.demand;
        col.on_queue_change(now, qi, lengths[qi]);
        if (!busy[qi]) start_head(qi);
      }
      calendar.schedule(now + arrivals.next_gap(rng), {true, 0});
    } else {
      const std::size_t qi = ev.payload.queue_idx;
      Job job = queue[qi].front();
      queue[qi].pop_front();
      --lengths[qi];
      remaining[qi] -= job.demand;
      busy[qi] = false;
      col.on_queue_change(now, qi, lengths[qi]);
      col.on_completion(now, job);
      if (!queue[qi].empty()) start_head(qi);
    }
  }
  if (obs::metrics_on()) {
    obs::count("sim.dispatch.runs");
    obs::count("sim.dispatch.events", n_events);
    const double wall_s = static_cast<double>(obs::now_ns() - obs_start_ns) / 1e9;
    obs::gauge_set("sim.dispatch.last_events_per_sec",
                   wall_s > 0.0 ? static_cast<double>(n_events) / wall_s : 0.0);
  }
  return col.finish(std::min(now, p.horizon));
}

}  // namespace tags::sim
