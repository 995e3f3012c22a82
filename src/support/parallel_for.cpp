#include "support/parallel_for.h"

namespace lmre {

int resolve_threads(int requested) {
  if (requested == 0) {
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
  }
  return std::max(requested, 1);
}

}  // namespace lmre
