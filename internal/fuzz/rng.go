package fuzz

// splitMix is the engine's one random-number generator: SplitMix64, a
// counter-based rand.Source64 whose whole state is a single uint64. The
// coordinator draws its schedule from one, and every mutated child draws from
// a reusable one reseeded with a coordinator draw, so a child's stream is a
// pure function of the campaign seed and its position in the schedule.
//
// The state is a complete capture of the generator as long as the engine
// only uses rand.Rand methods that consume source draws without buffering
// inside the Rand (Int63/Intn/Uint64/Shuffle and fillBytes; never
// rand.Rand.Read). Campaign snapshots store it verbatim, so resuming costs
// O(1) no matter how old the campaign is.
type splitMix struct{ state uint64 }

func (s *splitMix) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitMix) Int63() int64 { return int64(s.Uint64() >> 1) }

func (s *splitMix) Seed(seed int64) { s.state = uint64(seed) }
