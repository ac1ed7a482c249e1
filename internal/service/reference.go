package service

import (
	"time"

	"cloudsync/internal/client"
	"cloudsync/internal/cloud"
	"cloudsync/internal/comp"
	"cloudsync/internal/dedup"
	"cloudsync/internal/delta"
	"cloudsync/internal/hardware"
	"cloudsync/internal/planner"
)

// Reference is the pseudo-service implementing every recommendation
// the paper makes to providers. It is not one of the six measured
// services; it exists so the design guidance can be evaluated on the
// same workloads (the "reference" artifact of cmd/tuebench).
const Reference = Name(255)

// ReferenceCloudConfig is the cloud side of the reference design —
// full-file deduplication across users (§ 5.2: "supporting full-file
// deduplication is basically sufficient"), content compressed at rest
// and on downloads (§ 5.1), and a fast commit path.
func ReferenceCloudConfig() cloud.Config {
	return cloud.Config{
		DedupGranularity: dedup.FullFile,
		DedupCrossUser:   true,
		StoreCompression: comp.High,
		ProcessingTime:   300 * time.Millisecond,
	}
}

// ReferenceClientConfig is the client side of the reference design:
// incremental data sync (§ 4.3), batched data sync of creations
// (§ 4.1), moderate upload compression (§ 5.1), dedup probing, the
// adaptive sync defer of § 6.1, and a lean control protocol over a
// persistent connection.
func ReferenceClientConfig() client.Config {
	return client.Config{
		User:                "alice",
		Device:              "M1",
		Access:              client.PC,
		FullFileSync:        false,
		ChunkSize:           delta.DefaultBlockSize,
		UploadCompression:   comp.Moderate,
		DownloadCompression: comp.High,
		UseDedup:            true,
		BDS:                 true,
		Defer:               planner.DeferConfig{Mode: planner.DeferASD, Epsilon: 500 * time.Millisecond, TMax: 45 * time.Second},
		Hardware:            hardware.M1(),
		SharedSession:       true,
		ExtraRTTs:           1,
		PayloadExpansion:    1.02,
	}
}

// NewReferenceSetup builds a simulation of the reference design. The
// same Options as NewSetup apply; the Defer option overrides ASD.
func NewReferenceSetup(opts Options) *Setup {
	return assemble(Reference, client.PC, ReferenceCloudConfig(), ReferenceClientConfig(), true, opts)
}
