"""The zip members of the write path's ``.npz`` files.

numpy reads an ``.npz`` as a zip archive of ``.npy`` members.  This
module writes that archive itself, in numpy's member layout (deflate, a
zip64 extra on every local header, the 1980 timestamp, one central
directory), so that a member's compressed bytes can be assembled from
pieces deflated elsewhere.

A *piece* is raw deflate closed by a full flush (:func:`deflate_piece`):
it ends on a byte boundary and refers to nothing before it, so pieces
concatenate into one deflate stream that :data:`FINAL_BLOCK` closes.  A
data segment's ``packets.npy`` member is a header piece, a rows piece and
the final block (:func:`write_packet_segment`); ``finalize`` copies each
segment's rows piece into ``data.npz`` byte for byte
(:func:`write_packet_archive`, DESIGN §19).
"""

from __future__ import annotations

import io
import struct
import zipfile
import zlib
from pathlib import Path
from typing import BinaryIO, Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.dataplane.packet import PACKET_DTYPE
from repro.errors import CheckpointError

#: deflate's empty final block (fixed Huffman codes, BFINAL set); it
#: closes a stream that ends with a full-flushed piece
FINAL_BLOCK = b"\x03\x00"

#: the size or offset above which zipfile switches to zip64 fields
ZIP64_LIMIT = (1 << 31) - 1

_ZIP64_VERSION = 45
_DEFLATED = zipfile.ZIP_DEFLATED
#: 1980-01-01 00:00:00, the timestamp numpy's members carry
_DOS_TIME, _DOS_DATE = 0, (1 << 5) | 1
_EXTERNAL_ATTR = 0o600 << 16
#: the most bytes read from a segment, or returned by one inflate call,
#: at a time
_CHUNK = 1 << 20


def _compressor():
    """A raw-deflate compressor with zipfile's settings."""
    return zlib.compressobj(zlib.Z_DEFAULT_COMPRESSION, zlib.DEFLATED,
                            -zlib.MAX_WBITS)


def deflate_piece(data) -> bytes:
    """``data`` as raw deflate closed by a ``Z_FULL_FLUSH``: byte aligned,
    with the compressor history cleared."""
    compressor = _compressor()
    return compressor.compress(data) + compressor.flush(zlib.Z_FULL_FLUSH)


def npy_header(dtype: np.dtype, rows: int) -> bytes:
    """The ``.npy`` 1.0 header of a 1-D ``dtype`` array of ``rows`` rows,
    as ``np.save`` writes it."""
    buffer = io.BytesIO()
    np.lib.format.write_array_header_1_0(buffer, {
        "descr": np.lib.format.dtype_to_descr(np.dtype(dtype)),
        "fortran_order": False,
        "shape": (rows,),
    })
    return buffer.getvalue()


class ZipWriter:
    """Writes deflated members to a seekable binary file.

    A member is opened with :meth:`begin`, filled with compressed bytes
    by :meth:`write` and closed by :meth:`end` with the CRC-32 and size
    of its uncompressed content, which patch its local header in place.
    :meth:`close` writes the central directory, with zip64 fields and end
    records wherever a size or offset exceeds :data:`ZIP64_LIMIT`.
    """

    def __init__(self, fh: BinaryIO):
        self._fh = fh
        #: (name, header offset, CRC-32, compressed size, size) per member
        self._members: List[Tuple[bytes, int, int, int, int]] = []
        self._open: Optional[Tuple[bytes, int, int]] = None

    def begin(self, name: str) -> None:
        encoded = name.encode("ascii")
        offset = self._fh.tell()
        self._fh.write(_local_header(encoded, 0, 0, 0))
        self._open = (encoded, offset, self._fh.tell())

    def write(self, compressed) -> None:
        self._fh.write(compressed)

    def end(self, crc: int, size: int) -> None:
        name, offset, start = self._open
        stop = self._fh.tell()
        self._fh.seek(offset)
        self._fh.write(_local_header(name, crc, stop - start, size))
        self._fh.seek(stop)
        self._members.append((name, offset, crc, stop - start, size))
        self._open = None

    def add(self, name: str, data: bytes) -> None:
        """One whole member: ``data`` deflated in a single stream."""
        compressor = _compressor()
        self.begin(name)
        self.write(compressor.compress(data) + compressor.flush())
        self.end(zlib.crc32(data), len(data))

    def close(self) -> None:
        start = self._fh.tell()
        for name, offset, crc, compressed, size in self._members:
            zip64 = []
            if size > ZIP64_LIMIT or compressed > ZIP64_LIMIT:
                zip64 += [size, compressed]
                size = compressed = 0xFFFFFFFF
            if offset > ZIP64_LIMIT:
                zip64.append(offset)
                offset = 0xFFFFFFFF
            extra = (struct.pack(f"<HH{len(zip64)}Q", 1, 8 * len(zip64),
                                 *zip64) if zip64 else b"")
            self._fh.write(struct.pack(
                zipfile.structCentralDir, zipfile.stringCentralDir,
                _ZIP64_VERSION, 3, _ZIP64_VERSION, 0, 0, _DEFLATED,
                _DOS_TIME, _DOS_DATE, crc, compressed, size, len(name),
                len(extra), 0, 0, 0, _EXTERNAL_ATTR, offset))
            self._fh.write(name + extra)
        stop = self._fh.tell()
        count, length = len(self._members), stop - start
        if start > ZIP64_LIMIT or length > ZIP64_LIMIT:
            self._fh.write(struct.pack(
                zipfile.structEndArchive64, zipfile.stringEndArchive64,
                44, _ZIP64_VERSION, _ZIP64_VERSION, 0, 0, count, count,
                length, start))
            self._fh.write(struct.pack(
                zipfile.structEndArchive64Locator,
                zipfile.stringEndArchive64Locator, 0, stop, 1))
            start, length = (min(start, 0xFFFFFFFF),
                             min(length, 0xFFFFFFFF))
        self._fh.write(struct.pack(
            zipfile.structEndArchive, zipfile.stringEndArchive,
            0, 0, count, count, length, start, 0))


def _local_header(name: bytes, crc: int, compressed: int,
                  size: int) -> bytes:
    # the sizes live in the zip64 extra, as in ``zipfile.open(...,
    # force_zip64=True)``, so patching them never changes the length
    extra = struct.pack("<HHQQ", 1, 16, size, compressed)
    return struct.pack(
        zipfile.structFileHeader, zipfile.stringFileHeader, _ZIP64_VERSION,
        0, 0, _DEFLATED, _DOS_TIME, _DOS_DATE, crc, 0xFFFFFFFF, 0xFFFFFFFF,
        len(name), len(extra)) + name + extra


class _MemberInflater:
    """Inflates a deflate member as it is written, keeping the CRC-32 and
    size of everything fed so far; memory stays bounded by
    ``_CHUNK`` whatever the compression ratio."""

    def __init__(self) -> None:
        self._stream = zlib.decompressobj(-zlib.MAX_WBITS)
        self.crc = 0
        self.size = 0

    def feed(self, compressed, crc: int = 0) -> Tuple[int, int]:
        """Inflate ``compressed``, which must not end the stream; return
        the CRC-32 of its output continuing ``crc``, and its length.
        Raises ``zlib.error`` on a corrupt stream."""
        stream, length = self._stream, 0
        while True:
            out = stream.decompress(compressed, _CHUNK)
            self.crc = zlib.crc32(out, self.crc)
            crc = zlib.crc32(out, crc)
            length += len(out)
            compressed = stream.unconsumed_tail
            if not compressed and len(out) < _CHUNK:
                break
        if stream.eof:
            raise zlib.error("a final block ends the stream early")
        self.size += length
        return crc, length

    def close(self, final: bytes) -> bool:
        """Whether ``final`` ends the stream exactly, with no output."""
        out = self._stream.decompress(final)
        return (not out and self._stream.eof
                and not self._stream.unused_data)


def _member_span(fh: BinaryIO, name: str) -> Tuple[zipfile.ZipInfo, int]:
    """The central-directory entry of member ``name`` and the offset of
    its compressed bytes in ``fh``.  Raises ``zipfile.BadZipFile`` or
    ``KeyError`` when the archive has no such readable member."""
    with zipfile.ZipFile(fh) as archive:
        info = archive.getinfo(name)
    fh.seek(info.header_offset)
    header = fh.read(zipfile.sizeFileHeader)
    if len(header) != zipfile.sizeFileHeader:
        raise zipfile.BadZipFile(f"{name}: truncated local header")
    fields = struct.unpack(zipfile.structFileHeader, header)
    if fields[0] != zipfile.stringFileHeader:
        raise zipfile.BadZipFile(f"{name}: bad local header signature")
    # the last two fields are the name and extra lengths
    return info, (info.header_offset + zipfile.sizeFileHeader
                  + fields[-2] + fields[-1])


def write_packet_segment(fh: BinaryIO, packets: np.ndarray) -> None:
    """Write a 1-D packet array as an ``.npz`` with one ``packets.npy``
    member: the header piece, the rows piece, then :data:`FINAL_BLOCK`."""
    header = npy_header(packets.dtype, len(packets))
    rows = np.ascontiguousarray(packets).view(np.uint8)
    archive = ZipWriter(fh)
    archive.begin("packets.npy")
    archive.write(deflate_piece(header))
    archive.write(deflate_piece(rows))
    archive.write(FINAL_BLOCK)
    archive.end(zlib.crc32(rows, zlib.crc32(header)),
                len(header) + rows.nbytes)
    archive.close()


def write_packet_archive(fh: BinaryIO, segments: Sequence[Tuple[Path, int]],
                         sampling_rate: int) -> int:
    """Write ``data.npz`` from data segments given as ``(path, rows)``
    in day order, ``rows`` being each segment's journaled row count.

    The ``packets.npy`` member is one deflate stream of three parts: a
    header piece for the total row count, each segment's rows piece in
    order, then :data:`FINAL_BLOCK`.  A segment
    :func:`write_packet_segment` wrote lends its rows piece byte for byte
    (*spliced*, see :func:`_splice_rows`); any other segment, such as one
    ``np.savez_compressed`` wrote, is loaded and its rows are deflated
    once (*re-encoded*).  Every piece written is inflated once, for the
    member's CRC-32 and size.  Raises :class:`CheckpointError` naming
    the segment when it is unreadable or damaged, holds no 1-D packet
    array or holds other than ``rows`` rows.  Returns the number of
    spliced segments.
    """
    member = _MemberInflater()
    archive = ZipWriter(fh)
    archive.begin("packets.npy")

    def emit(piece, crc: int = 0) -> Tuple[int, int]:
        archive.write(piece)
        return member.feed(piece, crc)

    emit(deflate_piece(npy_header(PACKET_DTYPE,
                                  sum(rows for _, rows in segments))))
    spliced = 0
    for path, rows in segments:
        try:
            if _splice_rows(path, rows, emit):
                spliced += 1
                continue
            with np.load(path) as segment:
                packets = segment["packets"]
        except (zipfile.BadZipFile, zlib.error, EOFError, KeyError,
                ValueError) as exc:
            raise CheckpointError(f"segment {path} is unreadable: {exc}") \
                from exc
        if packets.dtype != PACKET_DTYPE or packets.ndim != 1:
            raise CheckpointError(
                f"segment {path} holds {packets.dtype} rows of shape "
                f"{packets.shape}, not packets")
        if len(packets) != rows:
            raise CheckpointError(
                f"segment {path} holds {len(packets)} rows, the journal "
                f"records {rows}")
        emit(deflate_piece(np.ascontiguousarray(packets).view(np.uint8)))
        del packets
    archive.write(FINAL_BLOCK)
    if not member.close(FINAL_BLOCK):
        raise CheckpointError(
            "the data segments' pieces do not form one deflate stream")
    archive.end(member.crc, member.size)
    rate = io.BytesIO()
    np.lib.format.write_array(rate, np.asanyarray(sampling_rate))
    archive.add("sampling_rate.npy", rate.getvalue())
    archive.close()
    return spliced


def _splice_rows(path: Path, rows: int,
                 emit: Callable[..., Tuple[int, int]]) -> bool:
    """Hand the rows piece of the data segment at ``path`` to ``emit``,
    ``_CHUNK`` bytes at a time, if :func:`write_packet_segment` wrote it
    for ``rows`` rows; return whether it did.

    Such a segment's ``packets.npy`` member is exactly the header piece
    :func:`deflate_piece` gives for ``rows`` rows, the rows piece and
    :data:`FINAL_BLOCK`.  ``emit(chunk, crc)`` writes a chunk and returns
    the CRC-32 of its inflated bytes continuing ``crc``, and their
    length; the header plus those bytes must match the member's stored
    CRC-32 and size, else ``zipfile.BadZipFile``.
    """
    header = npy_header(PACKET_DTYPE, rows)
    head = deflate_piece(header)
    with open(path, "rb") as seg:
        info, start = _member_span(seg, "packets.npy")
        length = info.compress_size - len(head) - len(FINAL_BLOCK)
        if info.compress_type != _DEFLATED or length < 0:
            return False
        seg.seek(start)
        if seg.read(len(head)) != head:
            return False
        seg.seek(start + len(head) + length)
        if seg.read(len(FINAL_BLOCK)) != FINAL_BLOCK:
            return False
        crc, size = zlib.crc32(header), len(header)
        seg.seek(start + len(head))
        while length:
            chunk = seg.read(min(length, _CHUNK))
            if not chunk:
                raise EOFError("the rows piece is truncated")
            length -= len(chunk)
            crc, inflated = emit(chunk, crc)
            size += inflated
    if (crc, size) != (info.CRC, info.file_size) \
            or size != len(header) + rows * PACKET_DTYPE.itemsize:
        raise zipfile.BadZipFile(
            "the rows fail the member's CRC-32 or size check")
    return True
