package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	querygraph "github.com/querygraph/querygraph"
	"github.com/querygraph/querygraph/internal/core"
)

// fixtureVersion changes whenever the files a fixture holds change shape,
// so stale caches are regenerated and not misread.
const fixtureVersion = 1

// worldSeed is the seed of the fixture world. It is a constant: -seed
// chooses the traffic, and a world per seed would put 120 MB on disk and
// 9 s of generation into every run the acceptance driver makes.
const worldSeed = 3

// fixtureShards is the shard count of the fixture's partition: one per
// core of the two-core machine the benchmark targets.
const fixtureShards = 2

// scale fixes every size the benchmark depends on. There are two: the
// 100 000-document world every recorded number comes from, and the quick
// world the tests drive the same code through in seconds.
type scale struct {
	Name string `json:"name"`
	// World knobs; zero keeps DefaultWorldConfig's value.
	Topics, DocsPerTopic, NoiseVocab, Queries int

	// ExpandedPool is how many benchmark queries the fixture expands to
	// obtain `expanded`-class query strings.
	ExpandedPool int
	// EntityPool and CommonPool size the other two classes: the strings the
	// laps, the gate and the traced pass draw from.
	EntityPool, CommonPool int
	// HotKeywords is serve-remote's pre-warmed expansion working set.
	HotKeywords int

	// LapOps is how many requests one lap of a search workload replays:
	// enough for a p90 with ten beyond it and no more, because a shorter
	// lap is replayed more often and every floor rests on more samples.
	// ColdLapOps is the lap of
	// expand-cold-client, whose operations are ~1000x longer: the fewest
	// that leave ten beyond a p50, so that a window holds ten laps or more.
	LapOps, ColdLapOps int

	Warmup time.Duration
	// IngestRate (documents/s) and CompactAt (delta documents) shape
	// live-pool's writer; IngestBatch is documents per Ingest call.
	IngestRate  float64
	IngestBatch int
	CompactAt   int
	// Probe is the per-probe operation count of the traced pass;
	// ColdProbe is its number of cold expansions.
	Probe, ColdProbe int
	// TraceWindow is each of the two lapped windows that price qserve's
	// request tracing.
	TraceWindow time.Duration
}

var (
	scaleFull = scale{
		Name: "world-100k", Topics: 1000, DocsPerTopic: 100, NoiseVocab: 20000, Queries: 2000,
		ExpandedPool: 256, EntityPool: 512, CommonPool: 64, HotKeywords: 64,
		LapOps: 128, ColdLapOps: 20, Warmup: 3 * time.Second,
		IngestRate: 2000, IngestBatch: 64, CompactAt: 16384,
		Probe: 512, ColdProbe: 24, TraceWindow: 2 * time.Second,
	}
	scaleQuick = scale{
		Name:         "world-quick",
		ExpandedPool: 32, EntityPool: 128, CommonPool: 16, HotKeywords: 16,
		LapOps: 128, ColdLapOps: 20, Warmup: 200 * time.Millisecond,
		IngestRate: 2000, IngestBatch: 64, CompactAt: 512,
		Probe: 128, ColdProbe: 8, TraceWindow: 300 * time.Millisecond,
	}
)

func scaleFor(quick bool) scale {
	if quick {
		return scaleQuick
	}
	return scaleFull
}

func (sc scale) worldConfig() querygraph.WorldConfig {
	cfg := querygraph.DefaultWorldConfig()
	cfg.Seed = worldSeed
	if sc.Topics > 0 {
		cfg.Topics, cfg.DocsPerTopic, cfg.NoiseVocab, cfg.Queries = sc.Topics, sc.DocsPerTopic, sc.NoiseVocab, sc.Queries
	}
	return cfg
}

// fixtureMeta is the fixture's identity and shape, echoed into every
// result so a changed world is detected and not silently re-baselined.
type fixtureMeta struct {
	Name           string             `json:"name"`
	WorldSeed      int64              `json:"world_seed"`
	ConfigHash     string             `json:"config_hash"`
	SnapshotSHA256 string             `json:"snapshot_sha256"`
	SnapshotBytes  int64              `json:"snapshot_bytes"`
	Stats          querygraph.Stats   `json:"stats"`
	HighDFTerm     string             `json:"high_df_term"`
	HighDF         int                `json:"high_df"`
	GenerateS      map[string]float64 `json:"generate_s"`
}

// inputs is what the query generator draws from: the world's article
// titles by topic, its benchmark keywords, and the expanded title queries
// of the first ExpandedPool of them.
type inputs struct {
	Topics   [][]string `json:"topics"`
	Keywords []string   `json:"keywords"`
	Expanded []string   `json:"expanded"`
}

type fixture struct {
	Dir    string
	Meta   fixtureMeta
	Inputs inputs
}

func (f *fixture) snapshot() string { return filepath.Join(f.Dir, "world.qgs") }
func (f *fixture) shardDir() string { return filepath.Join(f.Dir, "shards") }
func (f *fixture) manifest() string { return filepath.Join(f.shardDir(), "manifest.json") }

type fixtureSpec struct {
	Dir   string `json:"dir"`
	Scale scale  `json:"scale"`
}

func configHash(sc scale) string {
	blob, _ := json.Marshal(struct {
		Version, Shards int
		Config          querygraph.WorldConfig
		ExpandedPool    int
	}{fixtureVersion, fixtureShards, sc.worldConfig(), sc.ExpandedPool})
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:6])
}

// ensureFixture returns the cached fixture for the scale, generating it in
// a child process on a miss. The cache key is the seed and a hash of the
// whole world configuration; a cached snapshot whose bytes no longer hash
// to the recorded value is an error, not a rebuild.
func ensureFixture(work string, sc scale) (*fixture, error) {
	hash := configHash(sc)
	dir := filepath.Join(work, "fixtures", fmt.Sprintf("%s-seed%d-%s", sc.Name, worldSeed, hash))
	if _, err := os.Stat(filepath.Join(dir, "fixture.json")); err != nil {
		tmp := dir + ".tmp"
		if err := os.RemoveAll(tmp); err != nil {
			return nil, err
		}
		if err := os.MkdirAll(tmp, 0o755); err != nil {
			return nil, err
		}
		var ok struct{}
		if err := runChild("fixture", fixtureSpec{Dir: tmp, Scale: sc}, &ok); err != nil {
			return nil, err
		}
		if err := os.Rename(tmp, dir); err != nil {
			return nil, err
		}
	}
	f, err := loadFixture(dir)
	if err != nil {
		return nil, err
	}
	if f.Meta.ConfigHash != hash {
		return nil, fmt.Errorf("fixture %s: config hash %s, want %s", dir, f.Meta.ConfigHash, hash)
	}
	sum, _, err := fileSHA256(f.snapshot())
	if err != nil {
		return nil, err
	}
	if sum != f.Meta.SnapshotSHA256 {
		return nil, fmt.Errorf("fixture %s: snapshot hashes to %s, recorded %s: delete the directory to regenerate", dir, sum, f.Meta.SnapshotSHA256)
	}
	return f, nil
}

// loadFixture reads a generated fixture's metadata and generator inputs.
func loadFixture(dir string) (*fixture, error) {
	f := &fixture{Dir: dir}
	if err := readJSON(filepath.Join(dir, "fixture.json"), &f.Meta); err != nil {
		return nil, err
	}
	if err := readJSON(filepath.Join(dir, "inputs.json"), &f.Inputs); err != nil {
		return nil, err
	}
	return f, nil
}

// generateFixture is the fixture child: generate the world, build it,
// save the snapshot and the shard partition, and derive the query
// generator's inputs.
func generateFixture(spec fixtureSpec) error {
	ctx := context.Background()
	timings := make(map[string]float64)
	lap := time.Now()
	mark := func(name string) {
		timings[name] = time.Since(lap).Seconds()
		lap = time.Now()
	}
	world, err := querygraph.GenerateWorld(spec.Scale.worldConfig())
	if err != nil {
		return err
	}
	mark("generate")
	client, err := querygraph.Build(world)
	if err != nil {
		return err
	}
	defer client.Close()
	mark("build")
	snapshot := filepath.Join(spec.Dir, "world.qgs")
	if err := writeFileWith(snapshot, client.Save); err != nil {
		return err
	}
	mark("save")
	if err := client.SaveShards(filepath.Join(spec.Dir, "shards"), fixtureShards); err != nil {
		return err
	}
	mark("shard")

	in := inputs{Topics: make([][]string, len(world.TopicArticles))}
	for t, arts := range world.TopicArticles {
		for _, a := range arts {
			in.Topics[t] = append(in.Topics[t], strings.ToLower(client.Title(a)))
		}
	}
	for _, q := range client.Queries() {
		in.Keywords = append(in.Keywords, q.Keywords)
	}
	exps, err := client.ExpandAll(ctx, in.Keywords[:min(spec.Scale.ExpandedPool, len(in.Keywords))], querygraph.BatchOptions{})
	if err != nil {
		return err
	}
	for _, exp := range exps {
		if q := expandedQuery(client, exp); q != "" {
			in.Expanded = append(in.Expanded, q)
		}
	}
	mark("expand")

	// The collection's highest-document-frequency term turns an entity
	// query into one for which every document is a candidate.
	sys, _, err := core.LoadSystemFile(snapshot)
	if err != nil {
		return err
	}
	ix := sys.Engine.Index()
	meta := fixtureMeta{Name: spec.Scale.Name, WorldSeed: worldSeed, ConfigHash: configHash(spec.Scale),
		Stats: client.Stats(), GenerateS: timings}
	for _, term := range ix.Terms() {
		if df := ix.DocFreq(term); df > meta.HighDF || (df == meta.HighDF && term < meta.HighDFTerm) {
			meta.HighDFTerm, meta.HighDF = term, df
		}
	}
	if meta.SnapshotSHA256, meta.SnapshotBytes, err = fileSHA256(snapshot); err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(spec.Dir, "inputs.json"), in); err != nil {
		return err
	}
	return writeJSON(filepath.Join(spec.Dir, "fixture.json"), meta)
}

// expandedQuery writes the title query the system searches after
// expanding: one exact phrase per query entity and per feature.
func expandedQuery(be querygraph.Backend, exp *querygraph.Expansion) string {
	var b strings.Builder
	for _, a := range exp.QueryArticles {
		fmt.Fprintf(&b, " #1(%s)", strings.ToLower(be.Title(a)))
	}
	for _, f := range exp.Features {
		fmt.Fprintf(&b, " #1(%s)", strings.ToLower(f.Title))
	}
	if b.Len() == 0 {
		return ""
	}
	return "#combine(" + b.String()[1:] + ")"
}

func fileSHA256(path string) (string, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", 0, err
	}
	defer f.Close()
	h := sha256.New()
	n, err := io.Copy(h, f)
	if err != nil {
		return "", 0, err
	}
	return hex.EncodeToString(h.Sum(nil)), n, nil
}

func writeFileWith(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeJSON(path string, v any) error {
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(blob, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
