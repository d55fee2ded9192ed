#include "core/streaming_detector.hpp"

namespace race2d {

void StreamingLatticeDetector::on_read(VertexId t, Loc loc) {
  ++access_count_;
  detail::shadow_read(SupremaOrder(engine_), cells_[loc], t, t, loc,
                      access_count_, reporter_);
}

void StreamingLatticeDetector::on_write(VertexId t, Loc loc) {
  ++access_count_;
  detail::shadow_write(SupremaOrder(engine_), cells_[loc], t, t, loc,
                       access_count_, reporter_);
}

void StreamingLatticeDetector::on_retire(VertexId t, Loc loc) {
  if (detail::shadow_retire(SupremaOrder(engine_), cells_, t, t, loc,
                            access_count_ + 1, reporter_)) {
    ++access_count_;
  }
}

MemoryFootprint StreamingLatticeDetector::footprint() const {
  MemoryFootprint f;
  f.shadow_bytes = cells_.heap_bytes();
  f.per_task_bytes = engine_.heap_bytes();
  return f;
}

}  // namespace race2d
