// Fixture for the walltime analyzer: wall-clock reads and global math/rand
// are flagged in simulation packages; constants and types from package time
// are fine.
package a

import (
	"math/rand"
	"time"
)

func now() int64 {
	t := time.Now() // want `time\.Now reads the wall clock`
	return t.Unix()
}

func elapsed(start time.Time) time.Duration {
	return time.Since(start) // want `time\.Since reads the wall clock`
}

func pause() {
	time.Sleep(time.Millisecond) // want `time\.Sleep reads the wall clock`
}

func draw() int {
	return rand.Intn(6) // want `math/rand\.Intn uses the process-global random source`
}

// Timers read the wall clock at construction and fire on it thereafter.
func timers() {
	_ = time.After(time.Second)     // want `time\.After reads the wall clock`
	_ = time.NewTimer(time.Second)  // want `time\.NewTimer reads the wall clock`
	_ = time.NewTicker(time.Second) // want `time\.NewTicker reads the wall clock`
}

// Shuffle and Perm draw from the process-global source like Intn.
func reorder(xs []int) []int {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) // want `math/rand\.Shuffle uses the process-global random source`
	return rand.Perm(len(xs))                                             // want `math/rand\.Perm uses the process-global random source`
}

// Durations and time constants do not read the clock.
func budget() time.Duration {
	return 3 * time.Second
}
