package device

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"

	"pimeval/internal/cmdstream"
	"pimeval/internal/fault"
	"pimeval/internal/isa"
	"pimeval/internal/stats"
)

// Device snapshot wire format (DESIGN.md §16). A snapshot serializes the
// complete semantic state of a device mid-replay — object table, memory
// contents at true element width, statistics, trace, and the fault
// injector's write-sequence state — such that RestoreSnapshot yields a
// device whose every subsequent operation is bit-identical to the
// uninterrupted original's.
//
// Layout: the magic "PIMS" and a version byte, then a sequence of CRC-framed
// sections, each
//
//	tag(1) | uvarint(payload length) | payload | crc32-IEEE(4, LE)
//
// with the CRC computed over tag, length, and payload. Sections appear in a
// fixed order — meta, one frame per live object (ascending ID), freed IDs,
// statistics, trace, fault state (only on fault-injecting devices), end —
// and nothing may follow the end frame. Framing every section independently
// means any truncation or corruption surfaces as a clean sentinel error at
// the damaged frame, never as a panic or a silently different restore.
const (
	snapMagic   = "PIMS"
	snapVersion = 1

	snapTagEnd    = 0
	snapTagMeta   = 1
	snapTagObject = 2
	snapTagFreed  = 3
	snapTagStats  = 4
	snapTagTrace  = 5
	snapTagFault  = 6

	// maxSnapSection bounds any fully-buffered section payload; object data
	// is streamed and bounded by the device's own capacity checks instead.
	maxSnapSection = 1 << 26
	// maxSnapString bounds embedded strings (type names, trace mnemonics).
	maxSnapString = 1 << 12
	// maxSnapElems bounds a single object's element count before the
	// resource manager's capacity checks run, keeping hostile headers from
	// overflowing size arithmetic.
	maxSnapElems = 1 << 48
	// snapPackElems is the element count packed per chunk when writing
	// object data, bounding writer-side buffering.
	snapPackElems = 1 << 16
)

// Sentinel snapshot errors. Every error returned by RestoreSnapshot wraps
// exactly one of these (match with errors.Is), with the failing frame's
// detail in the message.
var (
	// ErrSnapshotFormat marks input that is not a device snapshot at all:
	// bad magic or an unsupported version.
	ErrSnapshotFormat = errors.New("device: unrecognized snapshot format")
	// ErrSnapshotTruncated marks a snapshot cut off mid-frame.
	ErrSnapshotTruncated = errors.New("device: truncated snapshot")
	// ErrSnapshotCorrupt marks a snapshot that is structurally damaged: a
	// CRC mismatch, an out-of-order or malformed frame, or field values
	// that cannot describe a valid device.
	ErrSnapshotCorrupt = errors.New("device: corrupt snapshot")
)

// snapReadErr maps a read failure in context: EOF variants mean the
// snapshot was cut off (ErrSnapshotTruncated); anything else is a real I/O
// error and propagates unchanged so the caller can still match it.
func snapReadErr(err error, what string) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return fmt.Errorf("%w: %s", ErrSnapshotTruncated, what)
	}
	return fmt.Errorf("device: snapshot %s: %w", what, err)
}

// snapMeta is the JSON payload of the meta frame: the stream header that
// rebuilds the device (architecture, geometry, functional mode, fault
// configuration), the replay cursor the snapshot was taken at, and the
// resource manager's next sequential object ID.
type snapMeta struct {
	Stream cmdstream.Header `json:"stream"`
	Cursor int64            `json:"cursor"`
	NextID int64            `json:"next_id"`
}

// WriteSnapshot serializes the device's full state to w, recording cursor —
// the number of stream records consumed so far — so a resumed replay knows
// where to pick up. The encoding is deterministic: the same device state
// always produces the same bytes, and Snapshot→Restore→Snapshot is
// byte-stable.
//
// Snapshots capture semantic state only (objects, statistics, trace, fault
// sequence); observational configuration such as Workers or ReferenceEval is
// chosen anew at restore. A snapshot may not be taken inside a WithRepeat
// scope or while stream recording or extra sinks are attached — the captured
// state would not be self-contained.
func (d *Device) WriteSnapshot(w io.Writer, cursor int64) error {
	if cursor < 0 {
		return fmt.Errorf("%w: snapshot cursor %d", ErrBadArgument, cursor)
	}
	if d.pipe.repeat != 1 {
		return fmt.Errorf("%w: snapshot inside WithRepeat scope", ErrBadArgument)
	}
	if d.pipe.recorder != nil {
		return fmt.Errorf("%w: snapshot while stream recording is attached", ErrBadArgument)
	}
	if len(d.pipe.extra) > 0 {
		return fmt.Errorf("%w: snapshot with extra sinks attached", ErrBadArgument)
	}
	if _, err := io.WriteString(w, snapMagic); err != nil {
		return err
	}
	if _, err := w.Write([]byte{snapVersion}); err != nil {
		return err
	}
	sw := &snapWriter{w: w}

	meta, err := json.Marshal(snapMeta{
		Stream: d.streamHeader(),
		Cursor: cursor,
		NextID: int64(d.res.nextID),
	})
	if err != nil {
		return err
	}
	if err := sw.blob(snapTagMeta, meta); err != nil {
		return err
	}

	ids := make([]ObjID, 0, len(d.res.objs))
	for id := range d.res.objs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if err := sw.object(d.res.objs[id]); err != nil {
			return err
		}
	}

	if err := sw.blob(snapTagFreed, encodeFreed(d.res.freed)); err != nil {
		return err
	}

	st, err := json.Marshal(d.pipe.stats.st.State())
	if err != nil {
		return err
	}
	if err := sw.blob(snapTagStats, st); err != nil {
		return err
	}

	if err := sw.blob(snapTagTrace, encodeTrace(&d.pipe.trace)); err != nil {
		return err
	}

	if d.inj != nil {
		fs, err := json.Marshal(d.inj.State())
		if err != nil {
			return err
		}
		if err := sw.blob(snapTagFault, fs); err != nil {
			return err
		}
	}

	return sw.blob(snapTagEnd, nil)
}

// RestoreSnapshot rebuilds a device from a snapshot written by
// WriteSnapshot, returning the device and the replay cursor recorded in it.
// workers sizes the new device's functional worker pool (observational, as
// with NewFromHeader). Damaged input fails with an error wrapping
// ErrSnapshotFormat, ErrSnapshotTruncated, or ErrSnapshotCorrupt; a restore
// never panics and never silently yields a device different from the
// snapshotted one.
func RestoreSnapshot(r io.Reader, workers int) (*Device, int64, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(snapMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, 0, snapReadErr(err, "magic")
	}
	if string(magic) != snapMagic {
		return nil, 0, fmt.Errorf("%w: bad magic %q", ErrSnapshotFormat, magic)
	}
	ver, err := br.ReadByte()
	if err != nil {
		return nil, 0, snapReadErr(err, "version")
	}
	if ver != snapVersion {
		return nil, 0, fmt.Errorf("%w: unsupported snapshot version %d", ErrSnapshotFormat, ver)
	}
	sr := &snapReader{br: br}

	// Meta frame first: it carries everything needed to build the device.
	tag, err := sr.frameStart()
	if err != nil {
		return nil, 0, err
	}
	if tag != snapTagMeta {
		return nil, 0, fmt.Errorf("%w: expected meta frame, found tag %d", ErrSnapshotCorrupt, tag)
	}
	metaBuf, err := sr.blob()
	if err != nil {
		return nil, 0, err
	}
	if err := sr.frameEnd(); err != nil {
		return nil, 0, err
	}
	var meta snapMeta
	if err := json.Unmarshal(metaBuf, &meta); err != nil {
		return nil, 0, fmt.Errorf("%w: meta frame: %v", ErrSnapshotCorrupt, err)
	}
	if meta.Cursor < 0 || meta.NextID < 1 {
		return nil, 0, fmt.Errorf("%w: meta cursor %d, next id %d", ErrSnapshotCorrupt, meta.Cursor, meta.NextID)
	}
	d, err := NewFromHeader(meta.Stream, workers)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: meta header: %v", ErrSnapshotCorrupt, err)
	}

	// Object frames, ascending ID order (allocAt enforces uniqueness and the
	// device's own capacity limits, bounding hostile allocations).
	tag, err = sr.frameStart()
	if err != nil {
		return nil, 0, err
	}
	for tag == snapTagObject {
		if err := sr.restoreObject(d); err != nil {
			return nil, 0, err
		}
		if err := sr.frameEnd(); err != nil {
			return nil, 0, err
		}
		if tag, err = sr.frameStart(); err != nil {
			return nil, 0, err
		}
	}

	// Freed-ID frame.
	if tag != snapTagFreed {
		return nil, 0, fmt.Errorf("%w: expected freed frame, found tag %d", ErrSnapshotCorrupt, tag)
	}
	freedBuf, err := sr.blob()
	if err != nil {
		return nil, 0, err
	}
	if err := sr.frameEnd(); err != nil {
		return nil, 0, err
	}
	maxFreed, err := decodeFreed(freedBuf, d.res.objs, d.res.freed)
	if err != nil {
		return nil, 0, err
	}

	// Statistics frame.
	if tag, err = sr.frameStart(); err != nil {
		return nil, 0, err
	}
	if tag != snapTagStats {
		return nil, 0, fmt.Errorf("%w: expected stats frame, found tag %d", ErrSnapshotCorrupt, tag)
	}
	statsBuf, err := sr.blob()
	if err != nil {
		return nil, 0, err
	}
	if err := sr.frameEnd(); err != nil {
		return nil, 0, err
	}
	var stState stats.State
	if err := json.Unmarshal(statsBuf, &stState); err != nil {
		return nil, 0, fmt.Errorf("%w: stats frame: %v", ErrSnapshotCorrupt, err)
	}
	st, err := stats.FromState(stState)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: stats frame: %v", ErrSnapshotCorrupt, err)
	}
	d.pipe.stats.st = st

	// Trace frame.
	if tag, err = sr.frameStart(); err != nil {
		return nil, 0, err
	}
	if tag != snapTagTrace {
		return nil, 0, fmt.Errorf("%w: expected trace frame, found tag %d", ErrSnapshotCorrupt, tag)
	}
	if err := sr.restoreTrace(&d.pipe.trace); err != nil {
		return nil, 0, err
	}
	if err := sr.frameEnd(); err != nil {
		return nil, 0, err
	}

	// Fault frame: present exactly when the header enables fault injection.
	if tag, err = sr.frameStart(); err != nil {
		return nil, 0, err
	}
	if d.inj != nil {
		if tag != snapTagFault {
			return nil, 0, fmt.Errorf("%w: expected fault frame, found tag %d", ErrSnapshotCorrupt, tag)
		}
		faultBuf, err := sr.blob()
		if err != nil {
			return nil, 0, err
		}
		if err := sr.frameEnd(); err != nil {
			return nil, 0, err
		}
		var fs fault.State
		if err := json.Unmarshal(faultBuf, &fs); err != nil {
			return nil, 0, fmt.Errorf("%w: fault frame: %v", ErrSnapshotCorrupt, err)
		}
		if err := d.inj.SetState(fs); err != nil {
			return nil, 0, fmt.Errorf("%w: fault frame: %v", ErrSnapshotCorrupt, err)
		}
		if tag, err = sr.frameStart(); err != nil {
			return nil, 0, err
		}
	}

	// End frame, then EOF.
	if tag != snapTagEnd {
		return nil, 0, fmt.Errorf("%w: expected end frame, found tag %d", ErrSnapshotCorrupt, tag)
	}
	if sr.rem != 0 {
		return nil, 0, fmt.Errorf("%w: end frame with payload", ErrSnapshotCorrupt)
	}
	if err := sr.frameEnd(); err != nil {
		return nil, 0, err
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, 0, fmt.Errorf("%w: trailing data after end frame", ErrSnapshotCorrupt)
	}

	// The sequential ID counter must sit past every live and freed ID so the
	// resumed replay's allocations land exactly where the original's would.
	if meta.NextID < int64(d.res.nextID) || meta.NextID <= int64(maxFreed) {
		return nil, 0, fmt.Errorf("%w: next id %d behind object table", ErrSnapshotCorrupt, meta.NextID)
	}
	d.res.nextID = ObjID(meta.NextID)
	return d, meta.Cursor, nil
}

// encodeFreed renders the freed-ID set as a sorted delta-encoded list.
func encodeFreed(freed map[ObjID]bool) []byte {
	ids := make([]ObjID, 0, len(freed))
	for id := range freed {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	buf := binary.AppendUvarint(nil, uint64(len(ids)))
	prev := ObjID(0)
	for _, id := range ids {
		buf = binary.AppendUvarint(buf, uint64(id-prev))
		prev = id
	}
	return buf
}

// decodeFreed parses a freed-ID frame payload into freed, rejecting IDs
// that collide with live objects. It returns the largest freed ID.
func decodeFreed(buf []byte, objs map[ObjID]*Object, freed map[ObjID]bool) (ObjID, error) {
	count, n := binary.Uvarint(buf)
	if n <= 0 {
		return 0, fmt.Errorf("%w: freed frame header", ErrSnapshotCorrupt)
	}
	buf = buf[n:]
	var id ObjID
	for i := uint64(0); i < count; i++ {
		delta, n := binary.Uvarint(buf)
		if n <= 0 || delta == 0 || delta > math.MaxInt64-uint64(id) {
			return 0, fmt.Errorf("%w: freed frame entry %d", ErrSnapshotCorrupt, i)
		}
		buf = buf[n:]
		id += ObjID(delta)
		if _, live := objs[id]; live {
			return 0, fmt.Errorf("%w: freed id %d is live", ErrSnapshotCorrupt, int64(id))
		}
		freed[id] = true
	}
	if len(buf) != 0 {
		return 0, fmt.Errorf("%w: freed frame trailing bytes", ErrSnapshotCorrupt)
	}
	return id, nil
}

// encodeTrace renders the trace sink state.
func encodeTrace(t *traceSink) []byte {
	var buf []byte
	if t.tracing {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.AppendUvarint(buf, uint64(t.seq))
	buf = binary.AppendUvarint(buf, uint64(len(t.entries)))
	for _, run := range t.ordered() {
		for _, e := range run {
			buf = binary.AppendVarint(buf, e.Seq)
			buf = binary.AppendUvarint(buf, uint64(len(e.Name)))
			buf = append(buf, e.Name...)
			buf = binary.AppendVarint(buf, e.N)
			buf = binary.AppendVarint(buf, e.Reps)
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.Cost.TimeNS))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.Cost.EnergyPJ))
		}
	}
	return buf
}

// restoreTrace parses a trace frame into the device's trace sink.
func (sr *snapReader) restoreTrace(t *traceSink) error {
	flag, err := sr.byte()
	if err != nil {
		return err
	}
	if flag > 1 {
		return fmt.Errorf("%w: trace flag %d", ErrSnapshotCorrupt, flag)
	}
	seq, err := sr.uvarint()
	if err != nil {
		return err
	}
	count, err := sr.uvarint()
	if err != nil {
		return err
	}
	if seq > math.MaxInt64 || count > traceLimit || count > seq {
		return fmt.Errorf("%w: trace seq %d with %d entries", ErrSnapshotCorrupt, seq, count)
	}
	entries := make([]TraceEntry, 0, count)
	for i := uint64(0); i < count; i++ {
		var e TraceEntry
		if e.Seq, err = sr.svarint(); err != nil {
			return err
		}
		if e.Name, err = sr.string(); err != nil {
			return err
		}
		if e.N, err = sr.svarint(); err != nil {
			return err
		}
		if e.Reps, err = sr.svarint(); err != nil {
			return err
		}
		if e.Cost.TimeNS, err = sr.f64(); err != nil {
			return err
		}
		if e.Cost.EnergyPJ, err = sr.f64(); err != nil {
			return err
		}
		entries = append(entries, e)
	}
	t.tracing = flag == 1
	t.seq = int64(seq)
	t.entries = entries
	t.head = 0
	return nil
}

// snapWriter emits CRC-framed sections.
type snapWriter struct {
	w    io.Writer
	crc  uint32
	pack []byte
}

func (sw *snapWriter) write(p []byte) error {
	sw.crc = crc32.Update(sw.crc, crc32.IEEETable, p)
	_, err := sw.w.Write(p)
	return err
}

func (sw *snapWriter) frameStart(tag byte, payloadLen uint64) error {
	sw.crc = 0
	var buf [binary.MaxVarintLen64 + 1]byte
	buf[0] = tag
	n := binary.PutUvarint(buf[1:], payloadLen)
	return sw.write(buf[:1+n])
}

func (sw *snapWriter) frameEnd() error {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], sw.crc)
	_, err := sw.w.Write(buf[:])
	return err
}

// blob writes one fully-materialized frame.
func (sw *snapWriter) blob(tag byte, payload []byte) error {
	if err := sw.frameStart(tag, uint64(len(payload))); err != nil {
		return err
	}
	if err := sw.write(payload); err != nil {
		return err
	}
	return sw.frameEnd()
}

// object writes one object frame: the header fields, then the element data
// packed at the type's true width, little-endian, in bounded chunks.
func (sw *snapWriter) object(o *Object) error {
	name := o.dt.String()
	hdr := binary.AppendUvarint(nil, uint64(o.id))
	hdr = binary.AppendUvarint(hdr, uint64(len(name)))
	hdr = append(hdr, name...)
	hdr = binary.AppendUvarint(hdr, uint64(o.n))
	hasData := byte(0)
	width := o.dt.Bytes()
	var dataLen uint64
	if o.data != nil {
		hasData = 1
		dataLen = uint64(o.n) * uint64(width)
	}
	hdr = append(hdr, hasData)
	if err := sw.frameStart(snapTagObject, uint64(len(hdr))+dataLen); err != nil {
		return err
	}
	if err := sw.write(hdr); err != nil {
		return err
	}
	if o.data != nil {
		if cap(sw.pack) < snapPackElems*width {
			sw.pack = make([]byte, snapPackElems*width)
		}
		for lo := int64(0); lo < o.n; lo += snapPackElems {
			hi := lo + snapPackElems
			if hi > o.n {
				hi = o.n
			}
			buf := sw.pack[:int(hi-lo)*width]
			packElems(buf, o.data[lo:hi], width)
			if err := sw.write(buf); err != nil {
				return err
			}
		}
	}
	return sw.frameEnd()
}

// packElems packs values at the given byte width, little-endian. Values are
// canonical (truncated) so the low width bytes are lossless.
func packElems(dst []byte, src []int64, width int) {
	switch width {
	case 1:
		for i, v := range src {
			dst[i] = byte(v)
		}
	case 2:
		for i, v := range src {
			binary.LittleEndian.PutUint16(dst[i*2:], uint16(v))
		}
	case 4:
		for i, v := range src {
			binary.LittleEndian.PutUint32(dst[i*4:], uint32(v))
		}
	default:
		for i, v := range src {
			binary.LittleEndian.PutUint64(dst[i*8:], uint64(v))
		}
	}
}

// unpackElems reverses packElems, re-truncating each element to canonical
// form through the data type.
func unpackElems(dst []int64, src []byte, dt isa.DataType, width int) {
	switch width {
	case 1:
		for i := range dst {
			dst[i] = dt.Truncate(int64(src[i]))
		}
	case 2:
		for i := range dst {
			dst[i] = dt.Truncate(int64(binary.LittleEndian.Uint16(src[i*2:])))
		}
	case 4:
		for i := range dst {
			dst[i] = dt.Truncate(int64(binary.LittleEndian.Uint32(src[i*4:])))
		}
	default:
		for i := range dst {
			dst[i] = dt.Truncate(int64(binary.LittleEndian.Uint64(src[i*8:])))
		}
	}
}

// snapReader parses CRC-framed sections, tracking the running CRC and the
// current frame's remaining payload bytes so a malformed frame can never
// read past its own declared extent.
type snapReader struct {
	br  *bufio.Reader
	crc uint32
	rem uint64
	one [1]byte
}

// rawByte reads one CRC-covered byte outside payload accounting (frame
// headers).
func (sr *snapReader) rawByte() (byte, error) {
	b, err := sr.br.ReadByte()
	if err != nil {
		return 0, snapReadErr(err, "frame header")
	}
	sr.one[0] = b
	sr.crc = crc32.Update(sr.crc, crc32.IEEETable, sr.one[:])
	return b, nil
}

// frameStart reads the next frame's tag and payload length.
func (sr *snapReader) frameStart() (byte, error) {
	sr.crc = 0
	tag, err := sr.rawByte()
	if err != nil {
		return 0, err
	}
	var length uint64
	for shift := uint(0); ; shift += 7 {
		if shift >= 64 {
			return 0, fmt.Errorf("%w: frame length overflow", ErrSnapshotCorrupt)
		}
		b, err := sr.rawByte()
		if err != nil {
			return 0, err
		}
		length |= uint64(b&0x7f) << shift
		if b < 0x80 {
			break
		}
	}
	sr.rem = length
	return tag, nil
}

// frameEnd verifies the frame was fully consumed and its CRC matches.
func (sr *snapReader) frameEnd() error {
	if sr.rem != 0 {
		return fmt.Errorf("%w: %d unconsumed payload bytes", ErrSnapshotCorrupt, sr.rem)
	}
	var buf [4]byte
	if _, err := io.ReadFull(sr.br, buf[:]); err != nil {
		return snapReadErr(err, "frame checksum")
	}
	if got := binary.LittleEndian.Uint32(buf[:]); got != sr.crc {
		return fmt.Errorf("%w: frame checksum mismatch", ErrSnapshotCorrupt)
	}
	return nil
}

// read fills p from the current frame's payload.
func (sr *snapReader) read(p []byte) error {
	if uint64(len(p)) > sr.rem {
		return fmt.Errorf("%w: frame shorter than its contents", ErrSnapshotCorrupt)
	}
	if _, err := io.ReadFull(sr.br, p); err != nil {
		return snapReadErr(err, "frame payload")
	}
	sr.crc = crc32.Update(sr.crc, crc32.IEEETable, p)
	sr.rem -= uint64(len(p))
	return nil
}

func (sr *snapReader) byte() (byte, error) {
	if err := sr.read(sr.one[:]); err != nil {
		return 0, err
	}
	return sr.one[0], nil
}

func (sr *snapReader) uvarint() (uint64, error) {
	var v uint64
	for shift := uint(0); ; shift += 7 {
		if shift >= 64 {
			return 0, fmt.Errorf("%w: varint overflow", ErrSnapshotCorrupt)
		}
		b, err := sr.byte()
		if err != nil {
			return 0, err
		}
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, nil
		}
	}
}

func (sr *snapReader) svarint() (int64, error) {
	u, err := sr.uvarint()
	if err != nil {
		return 0, err
	}
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v, nil
}

func (sr *snapReader) f64() (float64, error) {
	var buf [8]byte
	if err := sr.read(buf[:]); err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(buf[:])), nil
}

func (sr *snapReader) string() (string, error) {
	n, err := sr.uvarint()
	if err != nil {
		return "", err
	}
	if n > maxSnapString {
		return "", fmt.Errorf("%w: string of %d bytes", ErrSnapshotCorrupt, n)
	}
	buf := make([]byte, n)
	if err := sr.read(buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// blob reads the current frame's whole remaining payload. The buffer grows
// with the bytes actually read, so a frame that declares a large section
// over a short input fails as truncated without allocating the section.
func (sr *snapReader) blob() ([]byte, error) {
	if sr.rem > maxSnapSection {
		return nil, fmt.Errorf("%w: section of %d bytes", ErrSnapshotCorrupt, sr.rem)
	}
	var buf bytes.Buffer
	if _, err := io.CopyN(&buf, sr.br, int64(sr.rem)); err != nil {
		return nil, snapReadErr(err, "frame payload")
	}
	sr.crc = crc32.Update(sr.crc, crc32.IEEETable, buf.Bytes())
	sr.rem = 0
	return buf.Bytes(), nil
}

// restoreObject parses one object frame into d. Allocation goes through the
// resource manager's explicit-ID path, so duplicate IDs, freed IDs, and
// over-capacity objects are rejected by the same checks replay uses.
func (sr *snapReader) restoreObject(d *Device) error {
	id, err := sr.uvarint()
	if err != nil {
		return err
	}
	name, err := sr.string()
	if err != nil {
		return err
	}
	dt, ok := isa.TypeByName(name)
	if !ok {
		return fmt.Errorf("%w: object %d: unknown data type %q", ErrSnapshotCorrupt, id, name)
	}
	n, err := sr.uvarint()
	if err != nil {
		return err
	}
	if id > math.MaxInt64 || n > maxSnapElems {
		return fmt.Errorf("%w: object id %d with %d elements", ErrSnapshotCorrupt, id, n)
	}
	hasData, err := sr.byte()
	if err != nil {
		return err
	}
	if hasData > 1 || (hasData == 1) != d.cfg.Functional {
		return fmt.Errorf("%w: object %d data flag %d on functional=%v device",
			ErrSnapshotCorrupt, id, hasData, d.cfg.Functional)
	}
	// The frame must carry exactly the data its header claims before the
	// object is allocated: a frame that lies about n is rejected without
	// allocating for it.
	width := dt.Bytes()
	if hasData == 0 && sr.rem != 0 {
		return fmt.Errorf("%w: object %d: %d stray payload bytes", ErrSnapshotCorrupt, id, sr.rem)
	}
	if want := uint64(n) * uint64(width); hasData == 1 && sr.rem != want {
		return fmt.Errorf("%w: object %d: %d data bytes, want %d", ErrSnapshotCorrupt, id, sr.rem, want)
	}
	obj, err := d.res.allocAt(ObjID(id), int64(n), dt)
	if err != nil {
		return fmt.Errorf("%w: object %d: %v", ErrSnapshotCorrupt, id, err)
	}
	if hasData == 0 {
		return nil
	}
	buf := make([]byte, snapPackElems*width)
	for lo := int64(0); lo < obj.n; lo += snapPackElems {
		hi := lo + snapPackElems
		if hi > obj.n {
			hi = obj.n
		}
		chunk := buf[:int(hi-lo)*width]
		if err := sr.read(chunk); err != nil {
			return err
		}
		unpackElems(obj.data[lo:hi], chunk, dt, width)
	}
	return nil
}
