package syncnet

import (
	"encoding/binary"
	"net"
	"testing"
)

// benchBatchClient runs fn (one batched upload) b.N times over a
// net.Pipe-served client, reporting per-operation allocations — the
// live-path budget the pooled frame buffers, reused digest state, and
// vectored data writes exist to hold down.
func benchBatchClient(b *testing.B, files int, fn func(c *Client, batch []FileUpload) error) {
	srv := NewServer(ServerConfig{})
	defer srv.Close()
	cp, sp := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- srv.HandleConn(sp) }()
	c, err := NewClient(cp, "bench", "bench")
	if err != nil {
		b.Fatal(err)
	}

	batch := makeBatch("bench", files, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// New content each round: every iteration is a genuine full
		// transfer of the whole batch, never a dedup skip.
		for j := range batch {
			binary.LittleEndian.PutUint64(batch[j].Data, uint64(i)<<8|uint64(j))
		}
		if err := fn(c, batch); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	c.Close()
	<-done
}

func BenchmarkUploadBundle8(b *testing.B) {
	benchBatchClient(b, 8, func(c *Client, batch []FileUpload) error {
		_, err := c.UploadBundle(batch)
		return err
	})
}

// BenchmarkUploadLockstep8 uploads the same batch one blocking Upload
// at a time — the per-operation allocation comparator for the bundle
// path above.
func BenchmarkUploadLockstep8(b *testing.B) {
	benchBatchClient(b, 8, func(c *Client, batch []FileUpload) error {
		for _, f := range batch {
			if _, err := c.Upload(f.Name, f.Data); err != nil {
				return err
			}
		}
		return nil
	})
}
