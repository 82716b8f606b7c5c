package journal

import (
	"encoding/json"
	"fmt"
	"os"
)

// Checkpoint is an atomic snapshot of search progress, written alongside
// the journal (at <journal>.ckpt by convention). The journal alone is
// sufficient to resume — the checkpoint is the cheap-to-read summary a
// scheduler or operator polls to decide whether a job finished, and a
// cross-check that the journal is not a forgery of a different run.
type Checkpoint struct {
	Fingerprint string `json:"fingerprint"`
	Model       string `json:"model,omitempty"`
	// Evaluations is the number of journal records at save time. After
	// a crash it may lag the journal (never lead it): the journal is
	// fsync'd before the checkpoint is rewritten.
	Evaluations int `json:"evaluations"`
	// Done marks a completed search; Converged and Minimal are only
	// meaningful once Done.
	Done      bool     `json:"done"`
	Converged bool     `json:"converged"`
	Minimal   []string `json:"minimal,omitempty"`
}

// CheckpointPath returns the conventional checkpoint path for a journal.
func CheckpointPath(journalPath string) string { return journalPath + ".ckpt" }

// SaveCheckpoint atomically replaces the checkpoint at path (see
// WriteFileAtomic), so a crash leaves either the previous checkpoint or
// the new one — never a torn file.
func SaveCheckpoint(path string, c Checkpoint) error {
	b, err := json.Marshal(c)
	if err != nil {
		return err
	}
	return WriteFileAtomic(path, append(b, '\n'))
}

// LoadCheckpoint reads the checkpoint at path. A missing file returns
// ok=false with no error (a journal may predate its first checkpoint).
func LoadCheckpoint(path string) (Checkpoint, bool, error) {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return Checkpoint{}, false, nil
	}
	if err != nil {
		return Checkpoint{}, false, err
	}
	var c Checkpoint
	if err := json.Unmarshal(raw, &c); err != nil {
		return Checkpoint{}, false, fmt.Errorf("journal: checkpoint %s: %w", path, err)
	}
	return c, true, nil
}

// ValidateCheckpoint cross-checks a loaded checkpoint against the open
// journal it accompanies.
func ValidateCheckpoint(c Checkpoint, j *Journal) error {
	if c.Fingerprint != j.Header().Fingerprint {
		return fmt.Errorf("journal: checkpoint fingerprint %.12s... does not match journal %.12s...", c.Fingerprint, j.Header().Fingerprint)
	}
	if c.Evaluations > len(j.Records()) {
		return fmt.Errorf("journal: checkpoint claims %d evaluations but journal holds %d (journal truncated beyond the last checkpoint)", c.Evaluations, len(j.Records()))
	}
	return nil
}
