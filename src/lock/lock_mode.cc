#include "src/lock/lock_mode.h"

namespace youtopia {

bool Compatible(LockMode a, LockMode b) {
  switch (a) {
    case LockMode::kIS:
      return b != LockMode::kX;
    case LockMode::kIX:
      return b == LockMode::kIS || b == LockMode::kIX;
    case LockMode::kS:
      return b == LockMode::kIS || b == LockMode::kS;
    case LockMode::kX:
      return false;
  }
  return false;
}

bool Covers(LockMode held, LockMode wanted) {
  if (held == wanted) return true;
  switch (held) {
    case LockMode::kX:
      return true;
    case LockMode::kS:
      return wanted == LockMode::kIS;
    case LockMode::kIX:
      return wanted == LockMode::kIS;
    case LockMode::kIS:
      return false;
  }
  return false;
}

LockMode Join(LockMode a, LockMode b) {
  if (Covers(a, b)) return a;
  if (Covers(b, a)) return b;
  // Remaining incomparable pairs: {S, IX} and {S, IS}->S handled above.
  return LockMode::kX;
}

}  // namespace youtopia
