package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// exactGate enforces that the deterministic metrics of a workload seed
// never change between runs of the same binaries. The first run of a
// (binaries, workload, seed) triple records them under the work
// directory; every later run must reproduce each recorded value bit for
// bit, and adds the values it measured that were not yet recorded (the
// traced run measures more of them).
func exactGate(cfg config, m *measured, layers map[string]float64) error {
	all := merge(m.e2e(), windowLayers(m), layers)
	vals := map[string]float64{}
	for _, d := range catalogue {
		if v, ok := all[d.name]; ok && d.exact {
			vals[d.name] = v
		}
	}
	id, err := binariesID(cfg.mlserved)
	if err != nil {
		return err
	}
	dir := filepath.Join(cfg.workdir, "exact")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%s-%d.json", id, cfg.w.name, cfg.seed))
	rec := map[string]float64{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &rec); err != nil {
			return fmt.Errorf("exact record %s: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	var diffs []string
	for name, v := range vals {
		if old, ok := rec[name]; ok && old != v {
			diffs = append(diffs, fmt.Sprintf("%s = %v, an earlier run of the same seed gave %v", name, v, old))
		} else if !ok {
			rec[name] = v
		}
	}
	if len(diffs) > 0 {
		sort.Strings(diffs)
		return fmt.Errorf("deterministic metrics changed for seed %d: %v", cfg.seed, diffs)
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// binariesID hashes the benchmark and daemon binaries: records made by
// other builds are never compared.
func binariesID(mlserved string) (string, error) {
	self, err := os.Executable()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	for _, p := range []string{self, mlserved} {
		f, err := os.Open(p)
		if err != nil {
			return "", err
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
