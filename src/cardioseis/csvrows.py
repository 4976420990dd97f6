"""The rows of a recording CSV: four %.9g fields and CRLF, as bytes.

ingest.write_recording_csv formats one slice of the rows itself and hands
each other slice to a worker interpreter that runs this file as a script:

    python -I -S csvrows.py <values> <rows per block> < float64 values > rows

The worker reads all of its values from stdin before it formats any, so the
writer streams a whole slice into the pipe without waiting for the worker.
It then writes its rows to stdout one block at a time. This module imports
sys alone, and never numpy, so a worker starts in milliseconds.
"""

import sys

_ROW = b"%.9g,%.9g,%.9g,%.9g\r\n"


def format_rows(values) -> bytes:
    """CSV rows of four fields each, from a flat sequence of floats."""
    return (_ROW * (len(values) // 4)) % tuple(values)


def main(argv) -> None:
    count, block_rows = int(argv[1]), int(argv[2])
    data = sys.stdin.buffer.read(8 * count)
    if len(data) != 8 * count:
        sys.exit(f"csvrows: expected {8 * count} bytes of float64 values on stdin, "
                 f"got {len(data)}")
    values = memoryview(data).cast("d")
    out = sys.stdout.buffer
    step = 4 * block_rows
    for s in range(0, count, step):
        out.write(format_rows(values[s:s + step]))
    out.flush()


if __name__ == "__main__":
    main(sys.argv)
