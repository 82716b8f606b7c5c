package core

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/models"
)

// TestJournalDigestsPinned pins the sha256 of whole tune journals. The
// reference tree-walker wrote these journals before it was deleted, and
// the VM matched them byte for byte: funarc at seed 1 (bench/golden.json's
// funarc-sweep/1), serial and at Parallelism 8, and MOM6 with 12
// evaluations, whose IF, DO WHILE and rank-2 arrays funarc lacks. Each
// model runs serially and at Parallelism 8, and both runs must report
// the same Fig. 6 points (ProcVariants), not only the same journal.
func TestJournalDigestsPinned(t *testing.T) {
	const (
		funarc = "d0fe339c756c7b7a955ffe65c79c7c00f93850d5fcf8004c9edcaeaa0fa9e49b"
		mom6   = "317ab07d41b00fc2dee6d169f8f40cc7e084f977610a1f807f6d8ff8e120e443"
	)
	serial := make(map[string]map[string][]ProcPoint) // model -> first run's ProcVariants
	for _, tc := range []struct {
		name  string
		model *models.Model
		opts  Options
		want  string
	}{
		{"funarc/par=1", models.Funarc(), Options{Seed: 1, Parallelism: 1}, funarc},
		{"funarc/par=8", models.Funarc(), Options{Seed: 1, Parallelism: 8}, funarc},
		{"mom6/budget=12", models.MOM6(), Options{Seed: 1, MaxEvaluations: 12}, mom6},
		{"mom6/budget=12/par=8", models.MOM6(), Options{Seed: 1, MaxEvaluations: 12, Parallelism: 8}, mom6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := tc.opts
			opts.JournalPath = filepath.Join(t.TempDir(), strings.ReplaceAll(tc.name, "/", "-")+".jsonl")
			tn, err := New(tc.model, opts)
			if err != nil {
				t.Fatal(err)
			}
			res, err := tn.Run(nil)
			if err != nil {
				t.Fatalf("tune: %v", err)
			}
			if len(res.ProcVariants) == 0 {
				t.Error("no Fig. 6 points")
			}
			if want, ok := serial[tc.model.Name]; !ok {
				serial[tc.model.Name] = res.ProcVariants
			} else if !reflect.DeepEqual(res.ProcVariants, want) {
				t.Errorf("ProcVariants differ from the serial run's:\n got  %+v\n want %+v", res.ProcVariants, want)
			}
			b, err := os.ReadFile(opts.JournalPath)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("journal sha256 %s (%d bytes), want %s", got, len(b), tc.want)
			}
		})
	}
}
