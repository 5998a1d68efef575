package profile

// MemoBodies returns how many times Run has executed its profiling loop.
func MemoBodies() int64 { return bodies.Load() }

// MemoLen returns the number of profiles Run's memo holds.
func MemoLen() int { return memo.Len() }

// ResetMemo empties Run's memo.
func ResetMemo() { memo.Reset() }
