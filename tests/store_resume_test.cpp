// Kill-resume determinism: a child process runs a journalled sweep and is
// SIGKILLed mid-run at a randomized shard boundary (the store's fault
// hooks — both the in-process option and the environment-variable form a
// wrapper script would use). The parent then resumes the sweep against the
// surviving store and must reproduce the uninterrupted run exactly:
// metrics bit-identical, merged warm-start counters identical, and the
// rendered CSV byte-identical. Fork-based, so this suite deliberately
// stays out of the TSan matrix (the child re-runs solver code after fork).
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/sweep.hpp"
#include "core/table.hpp"
#include "models/tags.hpp"
#include "store/store.hpp"

namespace {

using namespace tags;

std::string fresh_dir(const std::string& tag) {
  const auto dir =
      std::filesystem::path(testing::TempDir()) / ("tags_store_resume_" + tag);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

/// A reduced model: fast enough to solve the whole grid a few times per
/// test, big enough for several shards, and at 1353 states just above
/// kAuto's dense-LU cap, so the sweep runs Gauss-Seidel and each shard's
/// third point starts from a prediction (dense LU never reads a guess, so
/// a smaller chain predicts nothing).
models::TagsParams reduced_model() {
  models::TagsParams base;
  base.n = 3;
  base.k1 = base.k2 = 8;
  return base;
}

const std::vector<double>& grid() {
  static const std::vector<double> ts = core::linspace(10.0, 150.0, 21);
  return ts;
}

/// shard_size 3 over 21 points -> 7 shards, one commit each.
core::SweepPlan plan(unsigned threads) { return {.threads = threads, .shard_size = 3}; }

bool same_bytes(const std::vector<models::Metrics>& a,
                const std::vector<models::Metrics>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(models::Metrics)) == 0);
}

std::string render_csv(const std::vector<models::Metrics>& results) {
  core::Table table({"t", "L", "loss", "W"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    table.add_row({grid()[i], results[i].mean_total, results[i].loss_rate,
                   results[i].response_time});
  }
  std::ostringstream os;
  table.write_csv(os);
  return os.str();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Run the journalled sweep in a forked child armed to SIGKILL itself on
/// the (crash_after + 1)th store commit. Returns true when the child died
/// by SIGKILL as intended.
bool run_child_until_kill(const std::string& dir, int crash_after,
                          bool crash_before_index, bool arm_via_env) {
  const pid_t pid = fork();
  if (pid == 0) {
    // Child: arm the fault, run the sweep single-threaded (fork-safe), and
    // die inside a commit. Reaching _exit means the fault never fired.
    store::StoreOptions opts;
    if (arm_via_env) {
      setenv("TAGS_STORE_CRASH_AFTER_COMMITS",
             std::to_string(crash_after).c_str(), 1);
      if (crash_before_index) setenv("TAGS_STORE_CRASH_BEFORE_INDEX", "1", 1);
    } else {
      opts.crash_after_commits = crash_after;
      opts.crash_before_index = crash_before_index;
    }
    try {
      store::SolveStore store(dir, opts);
      core::SweepStats stats;
      (void)core::tags_t_sweep(reduced_model(), grid(), plan(1), &stats, &store);
    } catch (...) {
      _exit(3);
    }
    _exit(2);
  }
  EXPECT_GT(pid, 0) << "fork failed";
  if (pid <= 0) return false;
  int status = 0;
  EXPECT_EQ(waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFSIGNALED(status))
      << "child exited " << (WIFEXITED(status) ? WEXITSTATUS(status) : -1)
      << " instead of being killed";
  if (!WIFSIGNALED(status)) return false;
  EXPECT_EQ(WTERMSIG(status), SIGKILL);
  return WTERMSIG(status) == SIGKILL;
}

class StoreResume : public ::testing::Test {
 protected:
  /// One full kill-then-resume round against the uninterrupted reference.
  void run_round(const std::string& tag, int crash_after,
                 bool crash_before_index, bool arm_via_env) {
    core::SweepStats ref_stats;
    const auto reference =
        core::tags_t_sweep(reduced_model(), grid(), plan(2), &ref_stats, nullptr);
    EXPECT_GT(ref_stats.warm.predicted, 0u);  // each shard's third point

    const auto dir = fresh_dir(tag);
    ASSERT_TRUE(run_child_until_kill(dir, crash_after, crash_before_index,
                                     arm_via_env));

    // The log holds exactly the shards whose commits completed their fsync
    // before the kill — crash_after N dies on the (N+1)th commit, after
    // that commit's log batch became durable.
    const auto durable = static_cast<std::size_t>(crash_after) + 1;
    {
      store::SolveStore peek(dir, store::StoreOptions{.read_only = true});
      EXPECT_EQ(peek.stats().total_records, durable);
      // crash_before_index kills between the log fsync and the index
      // publish: recovery must come from the log alone.
      if (crash_before_index) {
        store::SolveStore idx(
            dir, store::StoreOptions{.read_only = true, .use_index = true});
        EXPECT_FALSE(idx.stats().index_used);
        EXPECT_EQ(idx.stats().total_records, durable);
      }
    }

    // Resume with a different thread count: journalled shards replay, the
    // rest evaluate, and the merge is indistinguishable from one clean run.
    store::SolveStore store(dir);
    core::SweepStats stats;
    const auto resumed =
        core::tags_t_sweep(reduced_model(), grid(), plan(2), &stats, &store);

    EXPECT_EQ(stats.resumed, durable);
    EXPECT_LT(stats.resumed, stats.shards);
    EXPECT_TRUE(same_bytes(reference, resumed));
    EXPECT_EQ(ref_stats.warm.hits, stats.warm.hits);
    EXPECT_EQ(ref_stats.warm.misses, stats.warm.misses);
    EXPECT_EQ(ref_stats.warm.cleared, stats.warm.cleared);
    EXPECT_EQ(ref_stats.warm.uncertified, stats.warm.uncertified);
    EXPECT_EQ(ref_stats.warm.predicted, stats.warm.predicted);
    EXPECT_EQ(render_csv(reference), render_csv(resumed));

    // And the published CSV artifacts are byte-identical files.
    const auto ref_csv = dir + "/ref.csv";
    const auto res_csv = dir + "/resumed.csv";
    {
      core::Table t({"t", "L", "loss", "W"});
      for (std::size_t i = 0; i < reference.size(); ++i) {
        t.add_row({grid()[i], reference[i].mean_total, reference[i].loss_rate,
                   reference[i].response_time});
      }
      ASSERT_TRUE(t.save_csv(ref_csv));
    }
    {
      core::Table t({"t", "L", "loss", "W"});
      for (std::size_t i = 0; i < resumed.size(); ++i) {
        t.add_row({grid()[i], resumed[i].mean_total, resumed[i].loss_rate,
                   resumed[i].response_time});
      }
      ASSERT_TRUE(t.save_csv(res_csv));
    }
    EXPECT_EQ(read_file(ref_csv), read_file(res_csv));
    EXPECT_FALSE(read_file(ref_csv).empty());

    // A second resume replays everything: zero fresh evaluations.
    core::SweepStats replay_stats;
    const auto replayed =
        core::tags_t_sweep(reduced_model(), grid(), plan(2), &replay_stats, &store);
    EXPECT_EQ(replay_stats.resumed, replay_stats.shards);
    EXPECT_TRUE(same_bytes(reference, replayed));
  }
};

TEST_F(StoreResume, KillOnFirstCommitThenResumeIsByteIdentical) {
  run_round("first", /*crash_after=*/0, /*crash_before_index=*/false,
            /*arm_via_env=*/false);
}

TEST_F(StoreResume, KillMidSweepThenResumeIsByteIdentical) {
  run_round("mid", /*crash_after=*/3, /*crash_before_index=*/false,
            /*arm_via_env=*/false);
}

TEST_F(StoreResume, KillBeforeIndexPublishRecoversFromLogAlone) {
  run_round("before_index", /*crash_after=*/2, /*crash_before_index=*/true,
            /*arm_via_env=*/false);
}

TEST_F(StoreResume, EnvArmedKillMatchesTheWrapperScriptPath) {
  run_round("env", /*crash_after=*/1, /*crash_before_index=*/true,
            /*arm_via_env=*/true);
}

TEST_F(StoreResume, RandomizedCrashPointsAllResumeByteIdentical) {
  // A light randomized pass over the remaining boundaries (7 shards total;
  // deterministic seed so failures reproduce).
  for (const int crash_after : {4, 5}) {
    run_round("rand_" + std::to_string(crash_after), crash_after,
              (crash_after % 2) == 0, /*arm_via_env=*/false);
  }
}

}  // namespace
