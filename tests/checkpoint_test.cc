// Checkpoint format lockdown: round-trip fidelity of every
// TrainingCheckpoint field, atomicity of the temp-file-plus-rename
// commit, and — the robustness half — that every corruption mode
// (bad magic, version skew to a previous or a future version,
// truncation, bit flips, forged item counts, injected I/O faults)
// surfaces as the documented typed Status instead of silently loading
// garbage.

#include "core/checkpoint.h"

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/serial.h"
#include "tensor/random.h"

namespace sbrl {
namespace {

// Per-process, so the suite's ctest variants (and its sanitized twin)
// can run concurrently.
std::string TestPath(const std::string& name) {
  return ::testing::TempDir() + "/" + std::to_string(::getpid()) + "_" + name;
}

// Staging files of commits to `path` still present in its directory.
int StagingFilesLeft(const std::string& path) {
  const std::filesystem::path target(path);
  const std::string prefix = target.filename().string() + ".tmp";
  int left = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(target.parent_path())) {
    if (entry.path().filename().string().rfind(prefix, 0) == 0) ++left;
  }
  return left;
}

TrainingCheckpoint MakeCheckpoint() {
  Rng rng(99);
  TrainingCheckpoint ckpt;
  ckpt.next_iteration = 42;
  ckpt.opt_decay_steps = 42;
  ckpt.opt_plain_steps = 41;
  ckpt.opt_w_steps = 7;
  ckpt.best_valid = 0.125;
  ckpt.bad_evals = 2;
  ckpt.best_iteration = 39;
  ckpt.first_bad_iteration = 11;
  ckpt.rollbacks = 1;
  ckpt.lr_scale = 0.5;
  ckpt.loss_anchor = 3.5;
  ckpt.rng_state = "12345 678 90";
  ckpt.params.push_back(
      {"net.l0.w", rng.Randn(4, 3), rng.Randn(4, 3), rng.Randn(4, 3)});
  ckpt.params.push_back(
      {"net.l0.b", rng.Randn(1, 3), rng.Randn(1, 3), rng.Randn(1, 3)});
  ckpt.best_snapshot.push_back(rng.Randn(4, 3));
  ckpt.best_snapshot.push_back(rng.Randn(1, 3));
  ckpt.train_loss = {1.5, 1.25, 1.0};
  ckpt.valid_loss = {1.75, 1.5, 1.6};
  ckpt.weight_loss = {0.5, 0.25, 0.125};
  return ckpt;
}

void ExpectMatrixEq(const Matrix& a, const Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (int64_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(CheckpointTest, RoundTripPreservesEveryField) {
  const std::string path = TestPath("roundtrip.ckpt");
  const TrainingCheckpoint ckpt = MakeCheckpoint();
  ASSERT_TRUE(SaveCheckpoint(ckpt, path).ok());
  StatusOr<TrainingCheckpoint> loaded = LoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const TrainingCheckpoint& got = loaded.value();
  EXPECT_EQ(got.next_iteration, ckpt.next_iteration);
  EXPECT_EQ(got.opt_decay_steps, ckpt.opt_decay_steps);
  EXPECT_EQ(got.opt_plain_steps, ckpt.opt_plain_steps);
  EXPECT_EQ(got.opt_w_steps, ckpt.opt_w_steps);
  EXPECT_EQ(got.best_valid, ckpt.best_valid);
  EXPECT_EQ(got.bad_evals, ckpt.bad_evals);
  EXPECT_EQ(got.best_iteration, ckpt.best_iteration);
  EXPECT_EQ(got.first_bad_iteration, ckpt.first_bad_iteration);
  EXPECT_EQ(got.rollbacks, ckpt.rollbacks);
  EXPECT_EQ(got.lr_scale, ckpt.lr_scale);
  EXPECT_EQ(got.loss_anchor, ckpt.loss_anchor);
  EXPECT_EQ(got.rng_state, ckpt.rng_state);
  ASSERT_EQ(got.params.size(), ckpt.params.size());
  for (size_t i = 0; i < ckpt.params.size(); ++i) {
    EXPECT_EQ(got.params[i].name, ckpt.params[i].name);
    ExpectMatrixEq(got.params[i].value, ckpt.params[i].value);
    ExpectMatrixEq(got.params[i].adam_m, ckpt.params[i].adam_m);
    ExpectMatrixEq(got.params[i].adam_v, ckpt.params[i].adam_v);
  }
  ASSERT_EQ(got.best_snapshot.size(), ckpt.best_snapshot.size());
  for (size_t i = 0; i < ckpt.best_snapshot.size(); ++i) {
    ExpectMatrixEq(got.best_snapshot[i], ckpt.best_snapshot[i]);
  }
  EXPECT_EQ(got.train_loss, ckpt.train_loss);
  EXPECT_EQ(got.valid_loss, ckpt.valid_loss);
  EXPECT_EQ(got.weight_loss, ckpt.weight_loss);
  std::remove(path.c_str());
}

TEST(CheckpointTest, SaveOverwritesAtomically) {
  // A second save replaces the file wholesale and leaves no .tmp
  // droppings behind.
  const std::string path = TestPath("overwrite.ckpt");
  TrainingCheckpoint ckpt = MakeCheckpoint();
  ASSERT_TRUE(SaveCheckpoint(ckpt, path).ok());
  ckpt.next_iteration = 99;
  ASSERT_TRUE(SaveCheckpoint(ckpt, path).ok());
  StatusOr<TrainingCheckpoint> loaded = LoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().next_iteration, 99);
  EXPECT_EQ(StagingFilesLeft(path), 0) << "stale temp file left behind";
  std::remove(path.c_str());
}

TEST(CheckpointTest, MissingFileIsNotFound) {
  StatusOr<TrainingCheckpoint> loaded =
      LoadCheckpoint(TestPath("does_not_exist.ckpt"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(CheckpointTest, BadMagicIsInvalidArgument) {
  const std::string path = TestPath("not_a_checkpoint.ckpt");
  {
    std::ofstream out(path, std::ios::binary);
    out << "definitely not a checkpoint file";
  }
  StatusOr<TrainingCheckpoint> loaded = LoadCheckpoint(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

// A file of the previous format version is rejected, not misparsed; so
// is a future one.
TEST(CheckpointTest, VersionSkewIsFailedPrecondition) {
  for (const uint32_t version :
       {kCheckpointFormatVersion - 1, kCheckpointFormatVersion + 1}) {
    SCOPED_TRACE("version " + std::to_string(version));
    const std::string path = TestPath("version_skew.ckpt");
    ASSERT_TRUE(SaveCheckpoint(MakeCheckpoint(), path).ok());
    // The u32 version sits immediately after the 8-byte magic.
    std::fstream file(path,
                      std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(file.is_open());
    file.seekp(8);
    file.write(reinterpret_cast<const char*>(&version), sizeof(version));
    file.close();
    StatusOr<TrainingCheckpoint> loaded = LoadCheckpoint(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition);
    std::remove(path.c_str());
  }
}

TEST(CheckpointTest, TruncationIsInternal) {
  const std::string full_path = TestPath("truncate_src.ckpt");
  ASSERT_TRUE(SaveCheckpoint(MakeCheckpoint(), full_path).ok());
  std::ifstream in(full_path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  std::remove(full_path.c_str());
  ASSERT_GT(bytes.size(), 64u);
  const std::string path = TestPath("truncated.ckpt");
  {
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() / 2));
  }
  StatusOr<TrainingCheckpoint> loaded = LoadCheckpoint(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInternal);
  std::remove(path.c_str());
}

TEST(CheckpointTest, BitFlipFailsCrc) {
  const std::string path = TestPath("bitflip.ckpt");
  ASSERT_TRUE(SaveCheckpoint(MakeCheckpoint(), path).ok());
  std::fstream file(path,
                    std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(file.is_open());
  file.seekg(0, std::ios::end);
  const std::streamoff size = file.tellg();
  // Flip one bit in the middle of the params payload.
  file.seekg(size / 2);
  char byte = 0;
  file.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x10);
  file.seekp(size / 2);
  file.write(&byte, 1);
  file.close();
  StatusOr<TrainingCheckpoint> loaded = LoadCheckpoint(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInternal);
  std::remove(path.c_str());
}

TEST(CheckpointTest, InjectedWriteFaultFailsSaveAndPreservesOldFile) {
  const std::string path = TestPath("write_fault.ckpt");
  TrainingCheckpoint ckpt = MakeCheckpoint();
  ASSERT_TRUE(SaveCheckpoint(ckpt, path).ok());
  ckpt.next_iteration = 1000;
  ArmFault("checkpoint/write", /*hit=*/0);
  const Status failed = SaveCheckpoint(ckpt, path);
  DisarmFaults();
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.code(), StatusCode::kInternal);
  EXPECT_EQ(FaultFireCount("checkpoint/write"), 0)
      << "DisarmFaults must clear counters";
  // The previous checkpoint is untouched — the fault fired before the
  // temp file was committed.
  StatusOr<TrainingCheckpoint> loaded = LoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().next_iteration, 42);
  std::remove(path.c_str());
}

TEST(CheckpointTest, InjectedReadFaultFailsLoad) {
  const std::string path = TestPath("read_fault.ckpt");
  ASSERT_TRUE(SaveCheckpoint(MakeCheckpoint(), path).ok());
  ArmFault("checkpoint/read", /*hit=*/0);
  StatusOr<TrainingCheckpoint> loaded = LoadCheckpoint(path);
  DisarmFaults();
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInternal);
  std::remove(path.c_str());
}

// A CRC-valid section whose item count claims far more items than its
// payload holds (params and best-snapshot lists alike) is a
// corrupt section, not an allocation request.
TEST(CheckpointTest, ForgedItemCountIsInternal) {
  const serial::FormatSpec spec = {"SBRLCKPT", kCheckpointFormatVersion,
                                   "checkpoint", "checkpoint/write",
                                   "checkpoint/read"};
  std::string forged;
  serial::AppendScalar<uint64_t>(&forged, uint64_t{1} << 61);
  for (const uint32_t tag : {2u, 3u}) {
    SCOPED_TRACE("section tag " + std::to_string(tag));
    const std::string path = TestPath("forged_count.ckpt");
    ASSERT_TRUE(serial::WriteSectionedFile(spec, {{tag, forged}}, path).ok());
    StatusOr<TrainingCheckpoint> loaded = LoadCheckpoint(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kInternal);
    std::remove(path.c_str());
  }
}

// A header whose section count cannot fit in the file is truncation.
TEST(CheckpointTest, ForgedSectionCountIsInternal) {
  const std::string path = TestPath("forged_sections.ckpt");
  {
    std::ofstream out(path, std::ios::binary);
    out.write("SBRLCKPT", 8);
    const uint32_t header[2] = {kCheckpointFormatVersion, 0xFFFFFFFFu};
    out.write(reinterpret_cast<const char*>(header), sizeof(header));
  }
  StatusOr<TrainingCheckpoint> loaded = LoadCheckpoint(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInternal);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Concurrent commits: threads and forked processes saving to one path.
// ---------------------------------------------------------------------

constexpr int kCommitsPerWriter = 25;

// Writer `id`'s checkpoint: every field of MakeCheckpoint, tagged with
// the writer id in next_iteration and in one parameter's values.
TrainingCheckpoint WriterCheckpoint(int id) {
  TrainingCheckpoint ckpt = MakeCheckpoint();
  ckpt.next_iteration = id;
  ckpt.params[0].value.Fill(static_cast<double>(id));
  return ckpt;
}

// True when `path` loads and is exactly one writer's checkpoint, with
// that writer id in [0, writers).
bool HoldsOneWritersCheckpoint(const std::string& path, int writers) {
  StatusOr<TrainingCheckpoint> loaded = LoadCheckpoint(path);
  if (!loaded.ok()) return false;
  const int64_t id = loaded.value().next_iteration;
  if (id < 0 || id >= writers) return false;
  const TrainingCheckpoint want = WriterCheckpoint(static_cast<int>(id));
  const Matrix& got = loaded.value().params[0].value;
  for (int64_t i = 0; i < got.size(); ++i) {
    if (got[i] != want.params[0].value[i]) return false;
  }
  return loaded.value().rng_state == want.rng_state &&
         loaded.value().train_loss == want.train_loss;
}

TEST(ConcurrentCommitTest, ThreadsAndProcessesLeaveOneWritersFile) {
  std::string dir_template = ::testing::TempDir() + "/commit_race_XXXXXX";
  ASSERT_NE(::mkdtemp(dir_template.data()), nullptr);
  const std::string path = dir_template + "/shared.ckpt";
  constexpr int kProcesses = 2;
  constexpr int kThreads = 3;
  constexpr int kWriters = kProcesses + kThreads;
  ASSERT_TRUE(SaveCheckpoint(WriterCheckpoint(0), path).ok());

  // Fork before starting any thread. Each child commits, re-reading
  // the shared path after every commit, and reports through its exit
  // status.
  std::vector<pid_t> children;
  for (int p = 0; p < kProcesses; ++p) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      bool ok = true;
      for (int c = 0; c < kCommitsPerWriter; ++c) {
        ok = SaveCheckpoint(WriterCheckpoint(p), path).ok() && ok;
        ok = HoldsOneWritersCheckpoint(path, kWriters) && ok;
      }
      ::_exit(ok ? 0 : 1);
    }
    children.push_back(pid);
  }
  std::vector<int> thread_failures(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int c = 0; c < kCommitsPerWriter; ++c) {
        if (!SaveCheckpoint(WriterCheckpoint(kProcesses + t), path).ok() ||
            !HoldsOneWritersCheckpoint(path, kWriters)) {
          ++thread_failures[static_cast<size_t>(t)];
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const pid_t child : children) {
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "a forked writer saw a failed commit or an unloadable file";
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(thread_failures[static_cast<size_t>(t)], 0) << "thread " << t;
  }
  EXPECT_TRUE(HoldsOneWritersCheckpoint(path, kWriters));
  EXPECT_EQ(StagingFilesLeft(path), 0);
  std::filesystem::remove_all(dir_template);
}

TEST(ConcurrentCommitTest, UnwritableTargetIsInternal) {
  // The staging file cannot be created: the save reports Internal (the
  // typed load failures are covered by the CheckpointTest cases above).
  const Status unwritable =
      SaveCheckpoint(MakeCheckpoint(), TestPath("no_such_dir/x.ckpt"));
  ASSERT_FALSE(unwritable.ok());
  EXPECT_EQ(unwritable.code(), StatusCode::kInternal);
}

}  // namespace
}  // namespace sbrl
