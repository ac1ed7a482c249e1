package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"cloudsync/internal/content"
)

// doc-edit sizing: deDocs text files of deDocSize bytes receive edits
// of deMinEdit to deMaxEdit bytes at deRate edits per second — an open
// loop well below what two executor connections sustain.
const (
	deDocs    = 4
	deDocSize = 1 << 20
	deMinEdit = 1 << 10
	deMaxEdit = 4 << 10
	deRate    = 8.0
	// deDrain bounds how long the run waits, after the last scheduled
	// edit, for the pipeline to deliver the rest.
	deDrain = 20 * time.Second
)

func runDocEdit(cfg config) (result, error) {
	docs, size, rate := deDocs, deDocSize, deRate
	if cfg.tiny {
		docs, size, rate = 2, 64<<10, 20
	}
	return runLive(cfg, liveWorkload{workers: 2,
		prepare: func(e *liveEnv, cfg config) (func(float64) (phase, error), func() error, error) {
			de := &docEdit{e: e, rng: rand.New(rand.NewSource(cfg.seed)), rate: rate}
			for i := 0; i < docs; i++ {
				path := fmt.Sprintf("docs/doc%d.txt", i)
				text := content.Text(int64(size), cfg.seed*1000+int64(i)).Bytes()
				if _, err := e.src.write(path, text, e.now()); err != nil {
					return nil, nil, err
				}
				de.paths = append(de.paths, path)
				de.text = append(de.text, text)
			}
			if _, err := e.converge(); err != nil {
				return nil, nil, err
			}
			return de.measure, func() error { return de.verify(cfg.inject == "content") }, nil
		}})
}

// docEdit is one deployment's doc-edit state.
type docEdit struct {
	e     *liveEnv
	rng   *rand.Rand
	rate  float64
	paths []string
	text  [][]byte // current content of each document
}

// edit is one scheduled edit: the document it touched, the document's
// edit count after it, and when it was due.
type edit struct {
	doc  int
	seq  int64
	due  time.Time
	done bool
}

// next applies the next seeded edit to the in-memory text and returns
// the document index and the number of bytes the user changed: an
// insert, an overwrite, or an append of deMinEdit..deMaxEdit bytes.
func (de *docEdit) next() (int, int) {
	d := de.rng.Intn(len(de.text))
	n := deMinEdit + de.rng.Intn(deMaxEdit-deMinEdit+1)
	ins := content.Text(int64(n), de.rng.Int63()).Bytes()
	t := de.text[d]
	switch k := de.rng.Intn(10); {
	case k < 4: // insert
		off := de.rng.Intn(len(t) + 1)
		t = append(t[:off:off], append(ins, t[off:]...)...)
	case k < 8: // overwrite
		off := de.rng.Intn(len(t) + 1)
		end := off + n
		if end > len(t) {
			t = append(t[:off:off], ins...)
		} else {
			t = append(append(t[:off:off], ins...), t[end:]...)
		}
	default: // append
		t = append(t[:len(t):len(t)], ins...)
	}
	de.text[d] = t
	return d, n
}

// measure runs the open loop: a generator goroutine writes each edit
// at its scheduled time whatever the pipeline is doing, while this
// goroutine polls and ticks whenever something was written. An edit's
// latency runs from its scheduled time to the end of the tick that
// delivered it; edits still undelivered deDrain after the schedule
// ends count as failed.
func (de *docEdit) measure(seconds float64) (phase, error) {
	var ph phase
	e := de.e
	total := int(de.rate * seconds)
	if total < 1 {
		total = 1
	}
	interval := time.Duration(float64(time.Second) / de.rate)

	var mu sync.Mutex // guards edits
	var edits []edit
	var genErr error
	var late []float64
	wrote := make(chan struct{}, 1)
	genDone := make(chan struct{})
	start := time.Now()
	go func() {
		defer close(genDone)
		for i := 0; i < total; i++ {
			due := start.Add(time.Duration(i) * interval)
			time.Sleep(time.Until(due))
			late = append(late, msSince(due))
			d, n := de.next()
			seq, err := e.src.write(de.paths[d], de.text[d], e.now())
			if err != nil {
				genErr = err
				return
			}
			mu.Lock()
			edits = append(edits, edit{doc: d, seq: seq, due: due})
			ph.updateBytes += int64(n)
			mu.Unlock()
			select {
			case wrote <- struct{}{}:
			default:
			}
		}
	}()

	versions := make([]uint64, len(de.paths))
	acked := 0
	var lastAck time.Time
	finished := false
	var drainBy time.Time
	for {
		if !finished {
			select {
			case <-wrote:
			case <-genDone:
				finished = true
				drainBy = time.Now().Add(deDrain)
			}
		}
		if _, err := e.syncOnce(); err != nil {
			<-genDone
			return ph, err
		}
		tEnd := time.Now()
		base := e.pipe.Baseline()
		mu.Lock()
		for d, p := range de.paths {
			v := base[p].Version
			if v == versions[d] {
				continue
			}
			versions[d] = v
			have := e.src.delivered(p)
			for i := range edits {
				ed := &edits[i]
				if ed.doc == d && !ed.done && ed.seq <= have {
					ed.done = true
					acked++
					lastAck = tEnd
					ph.lat = append(ph.lat, float64(tEnd.Sub(ed.due))/1e6)
				}
			}
		}
		n := len(edits)
		mu.Unlock()
		if finished && (acked == n || time.Now().After(drainBy)) {
			break
		}
		if finished && e.pipe.PendingPaths() == 0 && acked < n {
			// Nothing left to sync yet edits undelivered: a write raced
			// the executor's read; the next poll picks it up.
			time.Sleep(time.Millisecond)
		}
	}
	if genErr != nil {
		return ph, genErr
	}
	ph.attempted = int64(len(edits))
	ph.ops = int64(acked)
	ph.failed = ph.attempted - ph.ops
	ph.opsPerSec = float64(acked) / lastAck.Sub(start).Seconds()
	sort.Float64s(late)
	ph.layers = metrics{}
	ph.layers.set("gen.late_p50_ms", quantile(late, 0.5), "ms")
	ph.layers.set("gen.late_p99_ms", quantile(late, 0.99), "ms")
	if ph.failed > 0 {
		return ph, fmt.Errorf("%d of %d edits undelivered %v after the schedule ended", ph.failed, ph.attempted, deDrain)
	}
	return ph, nil
}

// verify checks every document's server MD5 against the file on disk.
func (de *docEdit) verify(corrupt bool) error {
	if corrupt {
		full := filepath.Join(de.e.src.root, filepath.FromSlash(de.paths[0]))
		if err := os.WriteFile(full, []byte("changed behind the watcher's back"), 0o644); err != nil {
			return err
		}
	}
	local, err := de.e.src.md5Tree(de.paths)
	if err != nil {
		return err
	}
	entries, err := de.e.exec.List()
	if err != nil {
		return err
	}
	return compareListing(local, entries)
}
