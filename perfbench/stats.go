package main

import (
	"math"
	"sort"
	"time"
)

// loadResult is what one measured window produced.
type loadResult struct {
	// latMs holds one latency per finished operation, in milliseconds,
	// and atS the time it counts at, in seconds from the window's start:
	// its completion in a closed loop, its scheduled send in an open one.
	latMs, atS []float64
	// passEnds, when set, are the sub-windows' ends in seconds (the batch
	// passes); otherwise the window splits into subWindow-long slices.
	passEnds []float64
	// attempted and failed count operations; a failed check counts as a
	// failed operation.
	attempted, failed int
	// elapsed is the window from the first send to the last completion.
	elapsed time.Duration

	// clients is a closed loop's number of callers.
	clients int
	// open marks an open-loop window; sendLagMs then holds how late the
	// generator dispatched each request against its schedule.
	open      bool
	sendLagMs []float64
	// fresh counts requests that carried a spec outside the primed
	// catalogue.
	fresh int
}

// maxSendLag is how late the open-loop generator may dispatch before the
// window no longer measures the offered rate.
const maxSendLag = 5 * time.Millisecond

// generatorBehind reports whether the open-loop generator fell behind
// its schedule by more than maxSendLag at its 99th percentile.
func (r *loadResult) generatorBehind() bool {
	return r.open && quantile(sortedCopy(r.sendLagMs), 0.99) > float64(maxSendLag)/float64(time.Millisecond)
}

// subWindow is the length of the slices a window is cut into for its
// medians.
const subWindow = 5 * time.Second

// windowStats returns the median latency and the throughput of each
// sub-window. Their medians are the reported latency and throughput, so
// a stretch of the window disturbed from outside the program (a busy
// neighbour on a shared host) moves neither.
func (r *loadResult) windowStats() (p50s, rates []float64) {
	ends := r.passEnds
	if ends == nil {
		total := r.elapsed.Seconds()
		k := max(1, int(math.Round(total/subWindow.Seconds())))
		for i := 1; i <= k; i++ {
			ends = append(ends, total*float64(i)/float64(k))
		}
	}
	lats := make([][]float64, len(ends))
	for i, at := range r.atS {
		w := min(sort.SearchFloat64s(ends, at), len(ends)-1)
		lats[w] = append(lats[w], r.latMs[i])
	}
	start := 0.0
	for w, end := range ends {
		width := end - start
		start = end
		if len(lats[w]) == 0 {
			continue
		}
		p50s = append(p50s, median(lats[w]))
		if r.open {
			rates = append(rates, float64(len(lats[w]))/width)
		} else {
			// A closed loop's clients are never idle, so its throughput
			// is clients / mean latency (Little's law); unlike a count of
			// completions it does not jump by whole operations.
			var sum float64
			for _, l := range lats[w] {
				sum += l
			}
			rates = append(rates, float64(r.clients*len(lats[w]))/(sum/1000))
		}
	}
	return p50s, rates
}

// quantile is the q-quantile of an ascending sample by linear
// interpolation between order statistics (0 for an empty sample).
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	i := int(math.Floor(pos))
	if i >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(i)
	return sorted[i] + frac*(sorted[i+1]-sorted[i])
}

// beyond is how many of n samples lie above the q-quantile.
func beyond(n int, q float64) int {
	return int(math.Floor(float64(n)*(1-q) + 1e-9)) // 1e-9: 100·(1−0.9) is 9.999…
}

// minBeyond is how many samples must lie beyond a tail percentile before
// the benchmark reports it; with fewer, the "percentile" is just one of
// the largest few samples.
const minBeyond = 10

// honestQuantile is quantile for tail percentiles: it reports ok=false
// unless at least minBeyond samples lie beyond q.
func honestQuantile(sorted []float64, q float64) (float64, bool) {
	if beyond(len(sorted), q) < minBeyond {
		return 0, false
	}
	return quantile(sorted, q), true
}

// median of an unsorted sample.
func median(xs []float64) float64 {
	return quantile(sortedCopy(xs), 0.5)
}
