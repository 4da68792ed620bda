// Package protocol provides the generic TCP transport for the unified
// aggregation surface of internal/proto: any proto.Aggregator — the
// PrivateExpanderSketch protocol, the enumerable-domain variant, the two
// frequency oracles or any of the Table 1 baselines — plugs into the same
// Server, and every protocol's users serialize their single ε-LDP report
// into the same self-describing wire frame.
//
// Connection protocol (all integers big endian):
//
//	preamble  [protocol ID][command]
//
// The protocol ID negotiates at connection time: a server rejects the
// connection with an "ERR ...\n" line when the client's ID names a
// different protocol than the server aggregates. ID 0x00 is the wildcard
// for control commands that work against any server.
//
//	cmdReportBatch    u32 frame count, then exactly that many contiguous
//	                  fixed-size frames; reply is one ACK byte. The count
//	                  makes the body self-delimiting (no half-close
//	                  needed), so the command is pipelined: after the ACK
//	                  the connection accepts further commands, and one
//	                  connection carries any number of mega-batches. This
//	                  is the million-device ingest framing — one syscall
//	                  carries thousands of reports and the dial amortizes
//	                  across the session (DialIngest/IngestConn). It is
//	                  the only report framing: one device's report is a
//	                  batch of one. Command 0x01 (the retired EOF-terminated
//	                  stream) stays reserved.
//	cmdIdentify       no body; reply is u32 count, then per estimate
//	                  u16 item length + item + f64 count (IEEE 754 bits, so
//	                  the TCP path returns bit-identical estimates).
//	cmdQueryTopK      u32 k (0 = the server's configured size); reply is
//	                  the identify estimate framing, answered over the live
//	                  structure without retiring the round (streaming
//	                  aggregators with the proto.ContinuousQuerier
//	                  capability only). Pipelined like cmdReportBatch, so a
//	                  monitor interleaves queries with ingest batches on
//	                  one connection.
//	cmdSnapshot       no body; reply is u32 length + snapshot blob
//	                  (Mergeable aggregators only).
//	cmdMergeSnapshot  u32 length + snapshot blob; reply is one ACK byte.
//	cmdRound          no body; reply is u32 length + the open round's
//	                  encoded proto.RoundState (interactive aggregators
//	                  only). Pipelined.
//	cmdAdvanceRound   no body; finalizes the open round and replies with
//	                  the next round's state, framed like cmdRound.
//	                  Pipelined.
//
// A report frame is a complete proto.WireReport — [ID][codec version] +
// fixed payload — so a batch is also self-describing frame by frame and a
// misrouted or corrupted report is rejected by the aggregator, not
// misparsed.
package protocol
