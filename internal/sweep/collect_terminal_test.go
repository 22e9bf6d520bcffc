package sweep

import (
	"context"
	"fmt"
	"time"

	"repro/internal/httpapi"
)

// CollectTerminal is the pre-streaming collection path: long-poll the batch
// until it is terminal and emit every row from the final GET. It is the
// reference the streamed-equals-terminal acceptance test holds Collect to.
func (s *Submission) CollectTerminal(ctx context.Context, c *httpapi.Client) (err error) {
	defer func() {
		if cerr := s.cleanup(ctx, c); cerr != nil && err == nil {
			err = cerr
		}
	}()
	fin, err := c.WaitBatch(ctx, s.BatchID, 10*time.Minute)
	if err != nil {
		return err
	}
	if fin.Done != fin.Total {
		for _, cell := range fin.Cells {
			if cell.State != "done" {
				return fmt.Errorf("cell %d (%s on %s): %s: %s",
					cell.Index, cell.Algo, cell.Graph, cell.State, cell.Error)
			}
		}
	}
	for i, cell := range fin.Cells {
		s.plan.runs[i].emit(s.plan.table, cell.Result)
	}
	return nil
}
