package obs

import (
	"encoding/json"
	"io"
)

// WriteJSON encodes a point-in-time Snapshot of the Collector as
// indented JSON — the same shape topkbench -json embeds per experiment.
func (c *Collector) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(c.Snapshot())
}
