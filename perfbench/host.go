package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// hostInfo fingerprints the machine and the code a result came from.
type hostInfo struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// GitCommit is "unknown" outside a git checkout; SourceSHA256 then
	// still identifies the code: a digest of every .go file and go.mod
	// under the root, by path and content.
	GitCommit    string `json:"git_commit"`
	SourceSHA256 string `json:"source_sha256"`
}

func fingerprint(root string) hostInfo {
	h := hostInfo{
		CPUModel:   "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitCommit:  "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		h.GitCommit = strings.TrimSpace(string(out))
	}
	h.SourceSHA256 = sourceDigest(root)
	return h
}

// sourceDigest hashes the module's Go sources; build output directories
// (dot-prefixed) are skipped.
func sourceDigest(root string) string {
	sum := sha256.New()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the digest
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		rel, _ := filepath.Rel(root, path) // path is under root
		sum.Write([]byte(rel + "\x00"))
		sum.Write(b)
		return nil
	})
	return hex.EncodeToString(sum.Sum(nil))
}
