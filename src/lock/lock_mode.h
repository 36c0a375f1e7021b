#ifndef YOUTOPIA_LOCK_LOCK_MODE_H_
#define YOUTOPIA_LOCK_LOCK_MODE_H_

namespace youtopia {

/// Hierarchical lock modes. Table-level locks use all four; row-level locks
/// use S/X only. SIX is not needed by our executor (a writer that also scans
/// takes table X).
enum class LockMode {
  kIS = 0,  ///< intention shared (table level, before row S)
  kIX,      ///< intention exclusive (table level, before row X)
  kS,       ///< shared
  kX,       ///< exclusive
};

/// Standard compatibility matrix.
bool Compatible(LockMode a, LockMode b);

/// True when holding `held` already implies `wanted` (no upgrade needed).
bool Covers(LockMode held, LockMode wanted);

/// Least upper bound in the mode lattice (S join IX = X since SIX is not
/// supported).
LockMode Join(LockMode a, LockMode b);

}  // namespace youtopia

#endif  // YOUTOPIA_LOCK_LOCK_MODE_H_
