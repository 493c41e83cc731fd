package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// hostInfo identifies the machine and the code a result was measured
// on, so numbers from different hosts or revisions are never read as a
// trend.
type hostInfo struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GOARCH     string `json:"goarch"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model,omitempty"`
	// Revision is the git commit the binary was built from, when the
	// build ran inside a git work tree (with a "+dirty" suffix for
	// uncommitted changes); "unknown" otherwise.
	Revision string `json:"revision"`
	// SourceSHA256 digests every Go source and go.mod file under the
	// measured tree, so results stay attributable without git.
	SourceSHA256 string `json:"source_sha256"`
}

func readHost(root string) hostInfo {
	h := hostInfo{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GOARCH:     runtime.GOARCH,
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Revision:   "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			h.Revision = rev + dirty
		}
	}
	h.SourceSHA256 = sourceDigest(root)
	return h
}

// cpuModel returns the first "model name" in /proc/cpuinfo, or "" when
// the file is unreadable.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// sourceDigest hashes the path and contents of every .go and go.mod file
// under root, in sorted order, skipping dot-directories (build output).
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the digest
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, path := range files {
		b, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, path)
		h.Write([]byte(rel + "\x00"))
		h.Write(b)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}
