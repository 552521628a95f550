// The kernel's tasks by tid, stored in fixed-size chunks.
//
// Tids are handed out in order and never reused, so index tid - 1 names a
// task for the whole run. A reclaimed task's slot reads as null, and a chunk
// is freed once every task in it has been reclaimed: storage follows the
// tid range of the tasks still held, not every task ever created, so a long
// open-loop run stays flat in memory.

#ifndef NESTSIM_SRC_KERNEL_TASK_TABLE_H_
#define NESTSIM_SRC_KERNEL_TASK_TABLE_H_

#include <array>
#include <cstddef>
#include <memory>
#include <vector>

#include "src/kernel/task.h"

namespace nestsim {

class TaskTable {
 public:
  // Tasks ever created; the next one takes index size() (tid size() + 1).
  size_t size() const { return size_; }

  // The task at `index` (tid index + 1), or nullptr once it was reclaimed.
  // `index` must be below size().
  Task* operator[](size_t index) const {
    const Chunk* chunk = chunks_[index / kChunkSlots].get();
    return chunk == nullptr ? nullptr : chunk->slots[index % kChunkSlots].get();
  }

  // Stores `task` at index size() and returns it.
  Task* Add(std::unique_ptr<Task> task) {
    if (size_ % kChunkSlots == 0) {
      chunks_.push_back(std::make_unique<Chunk>());
    }
    Chunk& chunk = *chunks_.back();
    Task* raw = task.get();
    chunk.slots[size_ % kChunkSlots] = std::move(task);
    ++chunk.held;
    ++size_;
    return raw;
  }

  // Frees the task at `index`, and its chunk once the chunk is full and
  // holds no task.
  void Reclaim(size_t index) {
    std::unique_ptr<Chunk>& chunk = chunks_[index / kChunkSlots];
    chunk->slots[index % kChunkSlots].reset();
    if (--chunk->held == 0 && (index / kChunkSlots + 1) * kChunkSlots <= size_) {
      chunk.reset();
    }
  }

 private:
  static constexpr size_t kChunkSlots = 1024;
  struct Chunk {
    std::array<std::unique_ptr<Task>, kChunkSlots> slots;
    size_t held = 0;  // non-null slots
  };
  std::vector<std::unique_ptr<Chunk>> chunks_;  // null once freed
  size_t size_ = 0;
};

}  // namespace nestsim

#endif  // NESTSIM_SRC_KERNEL_TASK_TABLE_H_
