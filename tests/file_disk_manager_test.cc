// Lifecycle, persistence, validation, and counter-parity tests for the
// real-file DiskManager backend (ISSUE 8). The counter-parity cases are
// the contract the golden I/O suite builds on: a FileDiskManager must
// report byte-for-byte the same reads/writes/allocations as a
// SimDiskManager driven through the same op sequence — only wall-clock
// may differ between backends.

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "io/disk_manager.h"
#include "io/file_disk_manager.h"

namespace segdb::io {
namespace {

std::string TempPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

Page MakePattern(uint32_t page_size, uint8_t seed) {
  Page page(page_size);
  for (uint32_t i = 0; i < page_size; ++i) {
    page.data()[i] = static_cast<uint8_t>(seed + i * 7);
  }
  return page;
}

TEST(FileDiskManagerTest, CreateWriteReadTeardown) {
  const std::string path = TempPath("fdm_lifecycle.segdb");
  auto opened = FileDiskManager::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto& disk = *opened.value();
  EXPECT_EQ(disk.page_size(), 4096u);
  EXPECT_EQ(disk.pages_in_use(), 0u);

  auto id = disk.AllocatePage();
  ASSERT_TRUE(id.ok());
  // A fresh allocation reads back as zeros (the file grows with holes; no
  // physical zero-write is issued or counted).
  Page out(4096);
  std::memset(out.data(), 0xEE, out.size());
  ASSERT_TRUE(disk.ReadPage(id.value(), &out).ok());
  for (uint32_t i = 0; i < out.size(); ++i) ASSERT_EQ(out.data()[i], 0u);

  const Page pattern = MakePattern(4096, 3);
  ASSERT_TRUE(disk.WritePage(id.value(), pattern).ok());
  ASSERT_TRUE(disk.ReadPage(id.value(), &out).ok());
  EXPECT_EQ(std::memcmp(out.data(), pattern.data(), 4096), 0);

  EXPECT_EQ(disk.pages_in_use(), 1u);
  EXPECT_EQ(disk.stats().reads, 2u);
  EXPECT_EQ(disk.stats().writes, 1u);
  EXPECT_EQ(disk.stats().allocations, 1u);

  ASSERT_TRUE(disk.Close().ok());
  std::remove(path.c_str());
}

TEST(FileDiskManagerTest, ReopenRestoresAllocationStateAndBytes) {
  const std::string path = TempPath("fdm_reopen.segdb");
  PageId keep = kInvalidPageId;
  PageId freed = kInvalidPageId;
  {
    auto opened = FileDiskManager::Open(path);
    ASSERT_TRUE(opened.ok());
    auto& disk = *opened.value();
    auto a = disk.AllocatePage();
    auto b = disk.AllocatePage();
    auto c = disk.AllocatePage();
    ASSERT_TRUE(a.ok() && b.ok() && c.ok());
    keep = b.value();
    freed = a.value();
    ASSERT_TRUE(disk.WritePage(keep, MakePattern(4096, 42)).ok());
    ASSERT_TRUE(disk.FreePage(freed).ok());
    ASSERT_TRUE(disk.Close().ok());
  }
  {
    auto opened = FileDiskManager::Open(path);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    auto& disk = *opened.value();
    EXPECT_EQ(disk.pages_in_use(), 2u);
    EXPECT_EQ(disk.high_water_pages(), 3u);
    Page out(4096);
    ASSERT_TRUE(disk.ReadPage(keep, &out).ok());
    const Page pattern = MakePattern(4096, 42);
    EXPECT_EQ(std::memcmp(out.data(), pattern.data(), 4096), 0);
    // The freed page is dead across the reopen.
    EXPECT_FALSE(disk.ReadPage(freed, &out).ok());
    // And reusable: its id comes back from the restored free list, reading
    // as zeros (reuse rewrites the stale bytes).
    auto again = disk.AllocatePage();
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again.value(), freed);
    ASSERT_TRUE(disk.ReadPage(again.value(), &out).ok());
    for (uint32_t i = 0; i < out.size(); ++i) ASSERT_EQ(out.data()[i], 0u);
  }
  std::remove(path.c_str());
}

TEST(FileDiskManagerTest, RejectsUnalignedPageSize) {
  for (const uint32_t bad : {0u, 512u, 1024u, 4095u, 4097u, 6144u}) {
    FileDiskManagerOptions options;
    options.page_size = bad;
    auto opened = FileDiskManager::Open(TempPath("fdm_unaligned.segdb"),
                                        options);
    EXPECT_FALSE(opened.ok()) << "page_size " << bad;
    EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(FileDiskManagerTest, RejectsForeignOrMismatchedFile) {
  const std::string path = TempPath("fdm_foreign.segdb");
  {
    // Not a segdb file at all: 8 KiB of garbage.
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::vector<uint8_t> junk(8192, 0xAB);
    std::fwrite(junk.data(), 1, junk.size(), f);
    std::fclose(f);
    auto opened = FileDiskManager::Open(path);
    EXPECT_FALSE(opened.ok());
    EXPECT_EQ(opened.status().code(), StatusCode::kCorruption);
  }
  std::remove(path.c_str());
  {
    // A valid file reopened with a different page_size must refuse.
    FileDiskManagerOptions create;
    create.page_size = 4096;
    auto first = FileDiskManager::Open(path, create);
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(first.value()->Close().ok());
    FileDiskManagerOptions mismatched;
    mismatched.page_size = 8192;
    auto second = FileDiskManager::Open(path, mismatched);
    EXPECT_FALSE(second.ok());
  }
  std::remove(path.c_str());
}

// Counter parity: the same op sequence on both backends must produce
// identical DiskStats and identical read-back bytes. This is the backend
// half of the golden-I/O guarantee (the pool half lives in
// golden_io_test.cc).
TEST(FileDiskManagerTest, CountersMatchSimBackendOpForOp) {
  const std::string path = TempPath("fdm_parity.segdb");
  auto opened = FileDiskManager::Open(path);
  ASSERT_TRUE(opened.ok());
  FileDiskManager& file = *opened.value();
  SimDiskManager sim(4096);

  auto drive = [](DiskManager& disk) {
    std::vector<PageId> ids;
    for (int i = 0; i < 8; ++i) {
      auto id = disk.AllocatePage();
      ASSERT_TRUE(id.ok());
      ids.push_back(id.value());
      ASSERT_TRUE(
          disk.WritePage(id.value(),
                         MakePattern(4096, static_cast<uint8_t>(i))).ok());
    }
    Page out(4096);
    for (const PageId id : ids) ASSERT_TRUE(disk.ReadPage(id, &out).ok());
    ASSERT_TRUE(disk.PeekPage(ids[0], &out).ok());  // uncounted
    // Batch peek of live + dead pages: uncounted, per-fill statuses.
    std::vector<Page> pages(3, Page(4096));
    PageFill fills[3] = {{ids[2], &pages[0], Status::OK()},
                         {ids[3], &pages[1], Status::OK()},
                         {PageId{9999}, &pages[2], Status::OK()}};
    disk.PeekPagesBatch(fills);
    EXPECT_TRUE(fills[0].status.ok());
    EXPECT_TRUE(fills[1].status.ok());
    EXPECT_FALSE(fills[2].status.ok());
    // Torn write: counted like a whole write on a live page.
    ASSERT_TRUE(disk.WritePagePrefix(ids[1], MakePattern(4096, 99), 100).ok());
    ASSERT_TRUE(disk.FreePage(ids[4]).ok());
  };
  drive(file);
  drive(sim);

  EXPECT_EQ(file.stats().reads, sim.stats().reads);
  EXPECT_EQ(file.stats().writes, sim.stats().writes);
  EXPECT_EQ(file.stats().allocations, sim.stats().allocations);
  EXPECT_EQ(file.stats().frees, sim.stats().frees);
  EXPECT_EQ(file.pages_in_use(), sim.pages_in_use());
  EXPECT_EQ(file.high_water_pages(), sim.high_water_pages());

  // Torn write left prefix bytes of the new pattern, old suffix intact —
  // identical on both backends.
  Page from_file(4096);
  Page from_sim(4096);
  // Both devices allocate from empty, so the torn page is id 1 on each.
  const PageId fid{1};
  ASSERT_TRUE(file.PeekPage(fid, &from_file).ok());
  ASSERT_TRUE(sim.PeekPage(fid, &from_sim).ok());
  EXPECT_EQ(std::memcmp(from_file.data(), from_sim.data(), 4096), 0);

  ASSERT_TRUE(file.Close().ok());
  std::remove(path.c_str());
}

// Every Direct mode serves the same bytes through the one pread/pwrite
// path. kOn must either really bypass the page cache or refuse to open
// (tmpfs has no O_DIRECT); it never degrades silently like kAuto.
TEST(FileDiskManagerTest, DirectModesServeIdenticalBytes) {
  using Direct = FileDiskManagerOptions::Direct;
  for (const Direct mode : {Direct::kOff, Direct::kAuto, Direct::kOn}) {
    const std::string path = TempPath("fdm_direct.segdb");
    FileDiskManagerOptions options;
    options.direct = mode;
    auto opened = FileDiskManager::Open(path, options);
    if (mode == Direct::kOn && !opened.ok()) {
      EXPECT_EQ(opened.status().code(), StatusCode::kIoError);
      continue;
    }
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    auto& disk = *opened.value();
    if (mode != Direct::kAuto) {
      EXPECT_EQ(disk.direct_io(), mode == Direct::kOn);
    }
    std::vector<PageId> ids;
    for (int i = 0; i < 64; ++i) {
      auto id = disk.AllocatePage();
      ASSERT_TRUE(id.ok());
      ids.push_back(id.value());
      ASSERT_TRUE(disk.WritePage(
          id.value(), MakePattern(4096, static_cast<uint8_t>(i * 3))).ok());
    }
    Page out(4096);
    for (size_t i = 0; i < ids.size(); ++i) {
      ASSERT_TRUE(disk.ReadPage(ids[i], &out).ok());
      const Page want = MakePattern(4096, static_cast<uint8_t>(i * 3));
      ASSERT_EQ(std::memcmp(out.data(), want.data(), 4096), 0)
          << "mode " << static_cast<int>(mode) << " page " << i;
    }
    EXPECT_EQ(disk.stats().reads, ids.size());
    ASSERT_TRUE(disk.Close().ok());
    std::remove(path.c_str());
  }
}

// --- EINTR / short-transfer retry seam -------------------------------------
//
// ReadFullAt / WriteFullAt carry every FileDiskManager transfer (pages,
// superblock and bitmap). The function-pointer seam injects syscall
// behaviors a real device only shows under load.

int g_fake_fd = -1;
int g_eintr_budget = 0;
int g_short_step = 0;
std::vector<uint8_t> g_backing;

long FlakyPread(int fd, void* buf, unsigned long count, long offset) {
  EXPECT_EQ(fd, g_fake_fd);
  if (g_eintr_budget > 0) {
    --g_eintr_budget;
    errno = EINTR;
    return -1;
  }
  if (offset < 0 || static_cast<size_t>(offset) >= g_backing.size()) return 0;
  unsigned long n = count;
  if (g_short_step > 0) {
    n = std::min<unsigned long>(n, static_cast<unsigned long>(g_short_step));
  }
  n = std::min<unsigned long>(
      n, static_cast<unsigned long>(g_backing.size() - offset));
  std::memcpy(buf, g_backing.data() + offset, n);
  return static_cast<long>(n);
}

long FlakyPwrite(int fd, const void* buf, unsigned long count, long offset) {
  EXPECT_EQ(fd, g_fake_fd);
  if (g_eintr_budget > 0) {
    --g_eintr_budget;
    errno = EINTR;
    return -1;
  }
  unsigned long n = count;
  if (g_short_step > 0) {
    n = std::min<unsigned long>(n, static_cast<unsigned long>(g_short_step));
  }
  if (static_cast<size_t>(offset) + n > g_backing.size()) {
    g_backing.resize(offset + n);
  }
  std::memcpy(g_backing.data() + offset, buf, n);
  return static_cast<long>(n);
}

TEST(ReadWriteFullAtTest, RetriesEintrAndShortTransfers) {
  g_fake_fd = 77;
  g_backing.assign(512, 0);
  for (size_t i = 0; i < g_backing.size(); ++i) {
    g_backing[i] = static_cast<uint8_t>(i);
  }
  // EINTR storm then short 64-byte reads: the helper must assemble the
  // full 512 bytes regardless.
  g_eintr_budget = 5;
  g_short_step = 64;
  std::vector<uint8_t> dst(512, 0xFF);
  ASSERT_TRUE(ReadFullAt(g_fake_fd, dst.data(), dst.size(), 0, FlakyPread)
                  .ok());
  EXPECT_EQ(dst, g_backing);

  // Same regime on the write side.
  std::vector<uint8_t> src(512);
  for (size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<uint8_t>(255 - i);
  }
  g_backing.assign(512, 0);
  g_eintr_budget = 3;
  g_short_step = 100;
  ASSERT_TRUE(WriteFullAt(g_fake_fd, src.data(), src.size(), 0, FlakyPwrite)
                  .ok());
  EXPECT_EQ(g_backing, src);
}

TEST(ReadWriteFullAtTest, EofIsIoErrorNotHang) {
  g_fake_fd = 78;
  g_backing.assign(100, 7);  // shorter than the request
  g_eintr_budget = 0;
  g_short_step = 0;
  std::vector<uint8_t> dst(512, 0);
  const Status s = ReadFullAt(g_fake_fd, dst.data(), dst.size(), 0,
                              FlakyPread);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace segdb::io
