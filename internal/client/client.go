// Package client implements the sync client engine: the state machine
// that watches the sync folder, defers and batches updates, composes
// sync sessions, and puts bytes on the network path.
//
// Every design choice the paper measures is a Config field: sync
// granularity (full-file vs chunked IDS), upload compression level,
// deduplication participation, batched data sync (BDS) of small-file
// creations, and the sync-deferment policy. The engine also reproduces
// the two natural-batching conditions of § 6.2: a new modification is
// synchronized only when the previous session has completed
// (Condition 1 — enforced by serializing sessions on the path and by
// the in-flight check) and when the client has finished computing the
// modified files' metadata (Condition 2 — the hardware profile's
// metadata time elapses between the sync trigger and the dispatch, and
// updates landing in that window join the batch).
package client

import (
	"fmt"
	"sort"
	"time"

	"cloudsync/internal/chunker"
	"cloudsync/internal/cloud"
	"cloudsync/internal/comp"
	"cloudsync/internal/content"
	"cloudsync/internal/hardware"
	"cloudsync/internal/netem"
	"cloudsync/internal/obs"
	"cloudsync/internal/obs/ledger"
	"cloudsync/internal/planner"
	"cloudsync/internal/protocol"
	"cloudsync/internal/simclock"
	"cloudsync/internal/vfs"

	capturepkg "cloudsync/internal/capture"
)

// AccessMethod is how the user reaches the service (§ 3.2): native PC
// client, web browser, or mobile app.
type AccessMethod uint8

const (
	// PC is the native desktop client.
	PC AccessMethod = iota
	// Web is browser-based access.
	Web
	// Mobile is the smartphone app.
	Mobile
)

// String names the access method.
func (a AccessMethod) String() string {
	switch a {
	case PC:
		return "PC client"
	case Web:
		return "Web-based"
	case Mobile:
		return "Mobile app"
	default:
		return fmt.Sprintf("access(%d)", uint8(a))
	}
}

// Config selects the client-side design choices.
type Config struct {
	User   string
	Device string
	Access AccessMethod

	// FullFileSync uploads the whole file on any modification; when
	// false the client performs incremental data sync at ChunkSize
	// granularity.
	FullFileSync bool
	ChunkSize    int

	// UploadCompression is applied to outgoing content;
	// DownloadCompression is the strongest level the client can accept
	// on downloads.
	UploadCompression   comp.Level
	DownloadCompression comp.Level

	// UseDedup lets the client compute and send content fingerprints so
	// the cloud can deduplicate (web access never does).
	UseDedup bool

	// BDS enables batched data sync of file creations; BundleSize caps
	// how many creations share one bundle (0 = unlimited). Partial BDS
	// implementations (Dropbox web/mobile) use small bundles.
	BDS        bool
	BundleSize int

	// Defer is the sync-deferment policy (zero value: sync at once).
	// UDS judges the client's pending update bytes.
	Defer planner.DeferConfig

	// Hardware drives Condition 2's metadata-computation time.
	Hardware hardware.Profile

	// MetaPerSyncUp/Down model the service-specific control chatter
	// paid once per sync session (login, listing, status), and
	// MetaPerFileUp/Down the chatter paid per file within a session.
	// The split is what makes some services amortize batches (Box,
	// OneDrive) while others pay full price per file (Google Drive,
	// SugarSync); both are calibrated from Tables 6 and 7.
	MetaPerSyncUp   int
	MetaPerSyncDown int
	MetaPerFileUp   int
	MetaPerFileDown int
	// SharedSession merges all concurrently-pending work into one
	// session (sharing connection setup and session chatter); without
	// it every file (or BDS bundle) runs as its own session.
	SharedSession bool
	// ExtraRTTs adds protocol round trips to each session's commit.
	ExtraRTTs int
	// AutoSyncRemote subscribes the client to the cloud's change
	// notifications and mirrors other devices' changes into the local
	// folder (the Fig. 1 fan-out). PC clients of the same account run
	// with this on; access methods with no local replica leave it off.
	AutoSyncRemote bool
	// PayloadExpansion multiplies data payloads for service framing
	// (multipart encoding, per-block headers). ≥ 1.
	PayloadExpansion float64

	// Tracer, when set, records one span per sync round with children
	// for the metadata-computation window and each dispatched session.
	// Build it with obs.NewSimTracer(clock.Now) so timestamps are
	// virtual-clock readings; recording never alters the simulation.
	Tracer *obs.Tracer
}

func (c Config) validate() {
	if c.User == "" {
		panic("client: Config.User must be set")
	}
	if !c.FullFileSync && c.ChunkSize <= 0 {
		panic("client: chunked sync requires ChunkSize")
	}
	if err := c.Defer.Validate(); err != nil {
		panic("client: " + err.Error())
	}
	if c.PayloadExpansion < 1 {
		panic(fmt.Sprintf("client: PayloadExpansion %v < 1", c.PayloadExpansion))
	}
	if c.Hardware.HashMBps <= 0 {
		panic("client: Config.Hardware must be a valid profile")
	}
}

// Stats counts client activity.
type Stats struct {
	// Sessions is the number of sync sessions dispatched.
	Sessions int
	// FileSyncs is the number of file versions synchronized (bundled
	// creations count individually).
	FileSyncs int
	// Bundles is the number of BDS bundles sent.
	Bundles int
	// DedupSkips counts uploads fully avoided by deduplication.
	DedupSkips int
	// Deletes counts deletion notifications.
	Deletes int
	// Downloads counts completed downloads.
	Downloads int
}

type syncedInfo struct {
	gen  uint64
	size int64
}

type pendingEntry struct {
	deleted bool
}

// Client is a sync client bound to one folder, one cloud, and one path.
type Client struct {
	cfg   Config
	clock *simclock.Clock
	fs    *vfs.FS
	cloud *cloud.Cloud
	path  *netem.Path

	synced         map[string]*syncedInfo
	pending        map[string]*pendingEntry
	inSession      map[string]bool
	deferTimer     *simclock.Timer
	deferState     planner.ASDState
	inFlight       bool
	wantSync       bool
	applyingRemote bool

	round    *obs.Span // current sync round (nil when idle or untraced)
	metaSpan *obs.Span // metadata-computation window within the round

	stats Stats
}

// New wires a client to its folder, cloud, and path, and starts
// watching the folder.
func New(cfg Config, clock *simclock.Clock, fs *vfs.FS, cl *cloud.Cloud, path *netem.Path) *Client {
	cfg.validate()
	if clock == nil || fs == nil || cl == nil || path == nil {
		panic("client: New with nil dependency")
	}
	c := &Client{
		cfg:       cfg,
		clock:     clock,
		fs:        fs,
		cloud:     cl,
		path:      path,
		synced:    make(map[string]*syncedInfo),
		pending:   make(map[string]*pendingEntry),
		inSession: make(map[string]bool),
	}
	fs.Watch(c.onEvent)
	if cfg.AutoSyncRemote {
		cl.Subscribe(cfg.User, cfg.Device, c.onRemoteChange)
	}
	return c
}

// Config returns the client configuration.
func (c *Client) Config() Config { return c.cfg }

// Stats returns a copy of the activity counters.
func (c *Client) Stats() Stats { return c.stats }

// PendingCount reports files awaiting synchronization.
func (c *Client) PendingCount() int { return len(c.pending) }

// InFlight reports whether a sync session is active.
func (c *Client) InFlight() bool { return c.inFlight }

func (c *Client) onEvent(ev vfs.Event) {
	if c.applyingRemote {
		// The change is a mirror of a remote commit, not local user
		// activity; uploading it back would loop.
		return
	}
	switch ev.Op {
	case vfs.OpCreate, vfs.OpModify:
		p := c.pending[ev.Name]
		if p == nil {
			p = &pendingEntry{}
			c.pending[ev.Name] = p
		}
		p.deleted = false
	case vfs.OpDelete:
		_, everSynced := c.synced[ev.Name]
		if !everSynced && !c.inSession[ev.Name] {
			// Created and deleted before any sync touched it: nothing to
			// tell the cloud. (A file inside an in-flight session is
			// about to exist in the cloud, so its deletion must still be
			// queued — the race this guards was found by the model-based
			// convergence test.)
			delete(c.pending, ev.Name)
			return
		}
		p := c.pending[ev.Name]
		if p == nil {
			p = &pendingEntry{}
			c.pending[ev.Name] = p
		}
		p.deleted = true
	}
	var delay time.Duration
	delay, c.deferState = c.cfg.Defer.Step(c.deferState, c.clock.Now(), c.pendingBytes())
	if c.deferTimer != nil {
		c.deferTimer.Stop()
	}
	c.deferTimer = c.clock.Schedule(delay, c.timerFired)
}

// pendingBytes estimates the unsynchronized volume, the input to
// byte-counter deferment policies.
func (c *Client) pendingBytes() int64 {
	var total int64
	for name, p := range c.pending {
		if p.deleted {
			continue
		}
		f, ok := c.fs.File(name)
		if !ok {
			continue
		}
		if s, everSynced := c.synced[name]; everSynced {
			for _, r := range f.EditsSince(s.gen) {
				total += r.Len
			}
		} else {
			total += f.Size()
		}
	}
	return total
}

func (c *Client) timerFired() {
	c.deferTimer = nil
	c.trySync()
}

// trySync begins a sync cycle if one is not already in flight
// (Condition 1) and there is work to do.
func (c *Client) trySync() {
	if c.inFlight {
		c.wantSync = true
		return
	}
	if len(c.pending) == 0 {
		return
	}
	c.inFlight = true
	c.round = c.cfg.Tracer.Start("client.sync_round",
		obs.String("user", c.cfg.User), obs.String("device", c.cfg.Device),
		obs.Int("pending", int64(len(c.pending))))
	// Condition 2: compute metadata for every pending file before
	// dispatching. Updates arriving during this window join the batch,
	// because the snapshot happens at dispatch time.
	var metaBytes int64
	for name, p := range c.pending {
		if p.deleted {
			continue
		}
		if f, ok := c.fs.File(name); ok {
			metaBytes += f.Size()
		}
	}
	c.metaSpan = c.round.Child("client.metadata", obs.Int("bytes", metaBytes))
	c.clock.PostDelay(c.cfg.Hardware.MetadataTime(metaBytes), c.dispatch)
}

// workItem is one file operation snapshotted into a session.
type workItem struct {
	name     string
	deleted  bool
	isCreate bool
	blob     *content.Blob
	gen      uint64
	dirty    []chunker.Range
	decision cloud.UploadDecision
}

func (c *Client) dispatch() {
	c.metaSpan.End()
	c.metaSpan = nil
	batch := c.snapshot()
	if len(batch) == 0 {
		c.inFlight = false
		c.round.End()
		c.round = nil
		return
	}
	units := c.composeUnits(batch)
	if c.cfg.SharedSession {
		merged := sessionUnit{}
		for _, u := range units {
			merged.exchanges = append(merged.exchanges, u.exchanges...)
			merged.commits = append(merged.commits, u.commits...)
		}
		units = []sessionUnit{merged}
	}
	c.round.Set("files", len(batch))
	c.round.Set("sessions", len(units))
	remaining := len(units)
	for _, u := range units {
		u := u
		u.exchanges = append(u.exchanges, c.sessionExchange())
		c.stats.Sessions++
		var up, down int64
		for _, ex := range u.exchanges {
			up += int64(ex.UpApp)
			down += int64(ex.DownApp)
		}
		ssp := c.round.Child("client.session",
			obs.Int("exchanges", int64(len(u.exchanges))),
			obs.Int("up_app", up), obs.Int("down_app", down))
		c.path.Do(u.exchanges, c.cloud.Config().ProcessingTime, func(time.Duration) {
			c.runCommits(u.commits)
			ssp.End()
			remaining--
			if remaining == 0 {
				c.onAllSessionsDone()
			}
		})
	}
}

// sessionExchange is the once-per-session control tail: commit/status
// chatter plus the service's extra round trips.
func (c *Client) sessionExchange() netem.Exchange {
	return netem.Exchange{
		UpApp:     protocol.SizeCommit() + c.cfg.MetaPerSyncUp,
		DownApp:   protocol.SizeAck() + c.cfg.MetaPerSyncDown,
		Kind:      capturepkg.KindControl,
		ExtraRTTs: c.cfg.ExtraRTTs,
	}
}

func (c *Client) snapshot() []workItem {
	names := make([]string, 0, len(c.pending))
	for name := range c.pending {
		names = append(names, name)
	}
	sort.Strings(names)
	batch := make([]workItem, 0, len(names))
	for _, name := range names {
		p := c.pending[name]
		if p.deleted {
			batch = append(batch, workItem{name: name, deleted: true})
			continue
		}
		f, ok := c.fs.File(name)
		if !ok {
			continue
		}
		s := c.synced[name]
		item := workItem{
			name:     name,
			isCreate: s == nil,
			blob:     f.Blob(),
			gen:      f.Gen(),
		}
		if s != nil {
			item.dirty = f.EditsSince(s.gen)
		}
		item.decision = c.cloud.ProbeUpload(c.cfg.User, item.blob, c.cfg.UseDedup)
		batch = append(batch, item)
	}
	clear(c.pending)
	for _, item := range batch {
		c.inSession[item.name] = true
	}
	return batch
}

// expand applies the service's payload framing expansion.
func (c *Client) expand(n int64) int {
	return int(float64(n) * c.cfg.PayloadExpansion)
}

// uploadPayload computes the content bytes a work item must transfer.
func (c *Client) uploadPayload(item workItem) int64 {
	if item.decision.SkipAll {
		return 0
	}
	blob := item.blob
	full := comp.Size(blob, c.cfg.UploadCompression)
	if item.decision.TotalBlocks > 0 {
		// Block-level dedup: only the missing fraction moves.
		full = full * int64(item.decision.MissingBlocks) / int64(item.decision.TotalBlocks)
	}
	if item.isCreate || c.cfg.FullFileSync {
		return full
	}
	// Incremental sync: only chunks overlapping the dirty ranges move,
	// compressed at the blob's overall ratio.
	dirtyBytes := chunker.DirtyBytes(blob.Size(), c.cfg.ChunkSize, item.dirty)
	if blob.Size() == 0 {
		return 0
	}
	ratio := float64(comp.Size(blob, c.cfg.UploadCompression)) / float64(blob.Size())
	payload := int64(float64(dirtyBytes) * ratio)
	if payload > full {
		payload = full
	}
	return payload
}

// sessionUnit is an independently dispatchable piece of work: one file
// operation, or one BDS bundle of creations.
type sessionUnit struct {
	exchanges []netem.Exchange
	commits   []func()
}

func (c *Client) composeUnits(batch []workItem) []sessionUnit {
	// Partition: BDS bundles creations; everything else goes per file.
	var creations, rest []workItem
	if c.cfg.BDS {
		for _, item := range batch {
			if !item.deleted && item.isCreate {
				creations = append(creations, item)
			} else {
				rest = append(rest, item)
			}
		}
	} else {
		rest = batch
	}

	units := make([]sessionUnit, 0, len(rest))
	bundleSize := c.cfg.BundleSize
	if bundleSize <= 0 {
		bundleSize = len(creations)
	}
	for len(creations) > 0 {
		n := bundleSize
		if n > len(creations) {
			n = len(creations)
		}
		bundle := creations[:n]
		creations = creations[n:]
		u := sessionUnit{exchanges: c.bundleExchanges(bundle)}
		for _, item := range bundle {
			u.commits = append(u.commits, c.commitFn(item))
		}
		units = append(units, u)
		c.stats.Bundles++
	}
	for _, item := range rest {
		units = append(units, sessionUnit{
			exchanges: c.fileExchanges(item),
			commits:   []func(){c.commitFn(item)},
		})
	}
	return units
}

// bundleExchanges composes one BDS bundle: a single index/commit
// exchange pair covering every file, with the payloads concatenated.
func (c *Client) bundleExchanges(bundle []workItem) []netem.Exchange {
	indexUp := 0
	var payload int64
	for _, item := range bundle {
		indexUp += protocol.SizeIndexUpdate(item.name, item.decision.IndexFingerprints)
		payload += c.uploadPayload(item)
		if item.decision.SkipAll {
			c.stats.DedupSkips++
		}
		c.stats.FileSyncs++
	}
	replyDown := protocol.SizeIndexReply(0)
	ex := []netem.Exchange{{
		UpApp:   indexUp,
		DownApp: replyDown,
		Kind:    capturepkg.KindControl,
		Cause:   indexCause(bundle),
	}}
	if payload > 0 {
		ex = append(ex, netem.Exchange{
			UpApp:   c.expand(payload),
			DownApp: protocol.SizeAck(),
			Kind:    capturepkg.KindData,
		})
	}
	return ex
}

// indexCause attributes an index exchange: when it carries content
// fingerprints it is a dedup probe ("do you already have these
// blocks?"), otherwise plain metadata.
func indexCause(items []workItem) ledger.Cause {
	for _, item := range items {
		if item.decision.IndexFingerprints > 0 {
			return ledger.DedupProbe
		}
	}
	return ledger.Unset // → metadata via the control default
}

// fileExchanges composes the per-file exchange sequence: index update,
// data (if any), commit with the per-file control chatter.
func (c *Client) fileExchanges(item workItem) []netem.Exchange {
	if item.deleted {
		c.stats.Deletes++
		return []netem.Exchange{{
			UpApp:   protocol.SizeDelete() + c.cfg.MetaPerFileUp/2,
			DownApp: protocol.SizeAck() + c.cfg.MetaPerFileDown/2,
			Kind:    capturepkg.KindControl,
		}}
	}
	c.stats.FileSyncs++
	if item.decision.SkipAll {
		c.stats.DedupSkips++
	}
	indexUp := protocol.SizeIndexUpdate(item.name, item.decision.IndexFingerprints)
	replyDown := protocol.SizeIndexReply(item.decision.MissingBlocks)
	cause := ledger.Unset // → metadata via the control default
	if item.decision.IndexFingerprints > 0 {
		cause = ledger.DedupProbe
	}
	ex := []netem.Exchange{{
		UpApp:   indexUp,
		DownApp: replyDown,
		Kind:    capturepkg.KindControl,
		Cause:   cause,
	}}
	if payload := c.uploadPayload(item); payload > 0 {
		dataCause := ledger.Unset // → payload via the data default
		if !item.isCreate && !c.cfg.FullFileSync {
			// Incremental data sync ships only the changed byte ranges —
			// the sim-path equivalent of a delta's literal bytes.
			dataCause = ledger.DeltaLiteral
		}
		ex = append(ex, netem.Exchange{
			UpApp:   c.expand(payload),
			DownApp: protocol.SizeAck(),
			Kind:    capturepkg.KindData,
			Cause:   dataCause,
		})
	}
	ex = append(ex, netem.Exchange{
		UpApp:   protocol.SizeCommit() + c.cfg.MetaPerFileUp,
		DownApp: protocol.SizeAck() + c.cfg.MetaPerFileDown,
		Kind:    capturepkg.KindControl,
	})
	return ex
}

func (c *Client) commitFn(item workItem) func() {
	user := c.cfg.User
	return func() {
		if item.deleted {
			// The file may have been recreated meanwhile; a failed
			// delete of an already-gone entry is harmless.
			if e, ok := c.cloud.File(user, item.name); ok {
				_ = c.cloud.Delete(user, item.name)
				c.cloud.NotifyPeers(user, c.cfg.Device, e, true)
			}
			delete(c.synced, item.name)
			return
		}
		var e *cloud.Entry
		if item.decision.SkipAll {
			e = c.cloud.RecordSkippedUpload(user, item.name, item.blob)
		} else {
			e = c.cloud.Commit(user, item.name, item.blob, item.dirty)
		}
		c.synced[item.name] = &syncedInfo{gen: item.gen, size: item.blob.Size()}
		c.cloud.NotifyPeers(user, c.cfg.Device, e, false)
	}
}

// onRemoteChange mirrors another device's committed change into the
// local folder: the notification arrives as a server push, the content
// (for upserts) is downloaded, and the result is applied with the
// watcher suppressed. Conflicts resolve remote-wins: any queued local
// state for the same name is superseded.
func (c *Client) onRemoteChange(e *cloud.Entry, deleted bool) {
	notify := protocol.SizeNotify(e.Name)
	name := e.Name
	blob := e.Blob
	sp := c.cfg.Tracer.Start("client.remote_change",
		obs.String("name", name), obs.Bool("deleted", deleted))
	c.path.Push(notify, func(time.Duration) {
		if deleted {
			c.applyRemoteDelete(name)
			sp.End()
			return
		}
		payload := c.cloud.ServeSize(e, c.cfg.DownloadCompression)
		sp.Set("payload", payload)
		exchanges := []netem.Exchange{
			{
				UpApp:   protocol.SizeGet(name),
				DownApp: protocol.SizeIndexReply(0),
				Kind:    capturepkg.KindControl,
			},
			{
				UpApp:   protocol.SizeCommit(),
				DownApp: c.expand(payload),
				Kind:    capturepkg.KindData,
			},
		}
		c.path.Do(exchanges, 0, func(time.Duration) {
			c.stats.Downloads++
			c.applyRemoteUpsert(name, blob)
			sp.End()
		})
	})
}

func (c *Client) applyRemoteUpsert(name string, blob *content.Blob) {
	c.applyingRemote = true
	defer func() { c.applyingRemote = false }()
	var err error
	if _, ok := c.fs.File(name); ok {
		err = c.fs.Write(name, blob, []chunker.Range{{Off: 0, Len: blob.Size()}})
	} else {
		err = c.fs.Create(name, blob)
	}
	if err != nil {
		panic(fmt.Sprintf("client: applying remote change to %q: %v", name, err))
	}
	f, _ := c.fs.File(name)
	c.synced[name] = &syncedInfo{gen: f.Gen(), size: blob.Size()}
	delete(c.pending, name)
}

func (c *Client) applyRemoteDelete(name string) {
	c.applyingRemote = true
	defer func() { c.applyingRemote = false }()
	if _, ok := c.fs.File(name); ok {
		if err := c.fs.Delete(name); err != nil {
			panic(fmt.Sprintf("client: applying remote delete of %q: %v", name, err))
		}
	}
	delete(c.synced, name)
	delete(c.pending, name)
}

func (c *Client) runCommits(commits []func()) {
	for _, fn := range commits {
		fn()
	}
}

func (c *Client) onAllSessionsDone() {
	c.round.End()
	c.round = nil
	c.inFlight = false
	clear(c.inSession)
	if c.wantSync {
		c.wantSync = false
		c.trySync()
	}
}

// Download fetches a file's content from the cloud — the DN phase of
// Experiment 4. done (which may be nil) runs at completion.
func (c *Client) Download(name string, done func()) error {
	entry, ok := c.cloud.File(c.cfg.User, name)
	if !ok {
		return fmt.Errorf("client: download: %s/%s not in cloud", c.cfg.User, name)
	}
	payload := c.cloud.ServeSize(entry, c.cfg.DownloadCompression)
	sp := c.cfg.Tracer.Start("client.download",
		obs.String("name", name), obs.Int("payload", payload))
	exchanges := []netem.Exchange{
		{
			UpApp:   protocol.SizeIndexUpdate(name, 0) + c.cfg.MetaPerSyncUp/2,
			DownApp: protocol.SizeIndexReply(0) + c.cfg.MetaPerSyncDown/2,
			Kind:    capturepkg.KindControl,
		},
		{
			UpApp:   protocol.SizeCommit(),
			DownApp: c.expand(payload),
			Kind:    capturepkg.KindData,
		},
	}
	c.path.Do(exchanges, 0, func(time.Duration) {
		c.stats.Downloads++
		sp.End()
		if done != nil {
			done()
		}
	})
	return nil
}
