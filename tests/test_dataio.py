"""CSV formats, dip fits, and the summary table."""

import math
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biphoton import (
    C_M_PER_S,
    DomainError,
    FitError,
    MeasuredScan,
    ParseError,
    SpectralFilter,
    apply_spectral_filter,
    auto_grid,
    build_jsa,
    coincidence_scan,
    convolved_duration,
    default_delays,
    export_delay_scan,
    export_jsa_csv,
    export_jsi_csv,
    export_scan,
    extract_dip,
    fit_dip,
    gaussian_scan,
    intensity_fwhm,
    load_jsi,
    load_scan,
    preset_with_pump,
    sinc_dip_kernel,
    table_report,
    write_grid,
    write_rows,
)
from biphoton import dataio
from biphoton.dataio import _format_cells, format_float, provenance_line
from biphoton.hom import gaussian_dip_width
from biphoton.jsa import FrequencyGrid
from biphoton.spectral import GAUSSIAN_FWHM_FACTOR, wavelength_to_angular_frequency

from helpers import matmul_overlap


def write_scan_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def synthetic_counts(ppktp, pump_fwhm_nm=2.0, baseline=1e4, n=201):
    src = preset_with_pump(ppktp, pump_fwhm_nm=pump_fwhm_nm)
    delays = default_delays(src.pm, n=n)
    rates = gaussian_scan(src.pump, src.pm, delays).rates
    return src, delays, baseline * rates


class TestLoadScan:
    def test_well_formed_with_sigma(self, tmp_path):
        path = tmp_path / "scan.csv"
        rows = [f"{t},{100 + t},{10}" for t in range(-6, 6)]
        write_scan_lines(path, ["# a comment", "delay_ps,coincidences,sigma"] + rows)
        scan = load_scan(path)
        assert scan.delays[0] == pytest.approx(-6e-12)
        assert scan.sigma is not None and scan.sigma[0] == 10
        assert scan.comments == ("# a comment",)

    def test_stage_travel_unit(self, tmp_path):
        # 0.15 mm of double-pass travel is 2*0.15e-3/c seconds of delay
        path = tmp_path / "scan.csv"
        rows = [f"{0.15 * k},{50}" for k in range(12)]
        write_scan_lines(path, ["delay_mm,coincidences"] + rows)
        scan = load_scan(path)
        assert scan.delays[1] == pytest.approx(2 * 0.15e-3 / C_M_PER_S, rel=1e-12)

    def test_shuffled_delays(self, tmp_path):
        path = tmp_path / "scan.csv"
        rows = [f"{t},{100}" for t in (0, 2, 1, 3, 4, 5, 6, 7, 8, 9)]
        write_scan_lines(path, ["delay_ps,coincidences"] + rows)
        with pytest.raises((ParseError, DomainError), match="increasing"):
            load_scan(path)

    def test_negative_counts(self, tmp_path):
        path = tmp_path / "scan.csv"
        rows = [f"{t},{100 if t != 4 else -3}" for t in range(12)]
        write_scan_lines(path, ["delay_ps,coincidences"] + rows)
        with pytest.raises((ParseError, DomainError), match="negative|non-negative"):
            load_scan(path)

    def test_malformed_cell_reports_line(self, tmp_path):
        path = tmp_path / "scan.csv"
        rows = [f"{t},100" for t in range(12)]
        rows[5] = "5,not-a-number"
        write_scan_lines(path, ["delay_ps,coincidences"] + rows)
        with pytest.raises(ParseError, match=":7:"):
            load_scan(path)

    def test_unknown_unit_rejected(self, tmp_path):
        path = tmp_path / "scan.csv"
        write_scan_lines(path, ["delay_fs,coincidences"] + [f"{t},1" for t in range(12)])
        with pytest.raises(ParseError, match="delay_ps or delay_mm"):
            load_scan(path)

    def test_too_few_points(self, tmp_path):
        path = tmp_path / "scan.csv"
        write_scan_lines(path, ["delay_ps,coincidences"] + [f"{t},1" for t in range(5)])
        with pytest.raises(DomainError, match="at least 10"):
            load_scan(path)

    @pytest.mark.parametrize("row,message", [
        ("4,nan,10", "delays, counts and sigma must be finite"),
        ("4,inf,10", "delays, counts and sigma must be finite"),
        ("4,100,nan", "delays, counts and sigma must be finite"),
        (None, "need at least 10 points, got 5"),
    ], ids=["nan-count", "inf-count", "nan-sigma", "too-few"])
    def test_scan_errors_name_the_file(self, tmp_path, row, message):
        path = tmp_path / "scan.csv"
        rows = [f"{t},100,10" for t in range(5 if row is None else 12)]
        if row is not None:
            rows[4] = row
        write_scan_lines(path, ["delay_ps,coincidences,sigma"] + rows)
        with pytest.raises(DomainError) as info:
            load_scan(path)
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize("field", ["delays", "counts", "sigma"])
    def test_non_finite_scan_rejected(self, field):
        values = {"delays": np.arange(12.0), "counts": np.full(12, 100.0), "sigma": np.ones(12)}
        values[field] = values[field].copy()
        values[field][-1] = np.nan
        with pytest.raises(DomainError, match="must be finite"):
            MeasuredScan(**values)

    def test_comments_before_and_between_rows(self, tmp_path):
        # every ``#`` line, as written, in file order
        rows = [f"{t},{100 + t},10" for t in range(-6, 6)]
        lines = ["# run 7", "  # indented", "delay_ps,coincidences,sigma", *rows[:2],
                 "# between", "", *rows[2:5], "   # late  ", *rows[5:]]
        write_scan_lines(tmp_path / "scan.csv", lines)
        scan = load_scan(tmp_path / "scan.csv")
        assert scan.comments == ("# run 7", "  # indented", "# between", "   # late  ")
        assert scan.counts.tolist() == [100.0 + t for t in range(-6, 6)]

    @pytest.mark.parametrize("eol", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_line_ends(self, tmp_path, eol):
        lines = ["# run 7", "delay_mm,coincidences"] + [f"{0.15 * k},{50 + k}" for k in range(12)]
        (tmp_path / "scan.csv").write_bytes((eol.join(lines) + eol).encode("utf-8"))
        write_scan_lines(tmp_path / "lf.csv", lines)
        scan, want = load_scan(tmp_path / "scan.csv"), load_scan(tmp_path / "lf.csv")
        assert scan.comments == want.comments == ("# run 7",)
        assert scan.delays.tobytes() == want.delays.tobytes()
        assert scan.counts.tobytes() == want.counts.tobytes()

    def test_comment_kept_whole(self, tmp_path):
        rows = [f"{t},100" for t in range(12)]
        comment = "# page\x0cone\u2028two"
        write_scan_lines(tmp_path / "scan.csv", [comment, "delay_ps,coincidences"] + rows)
        assert load_scan(tmp_path / "scan.csv").comments == (comment,)

    def test_round_trip_bit_identical(self, tmp_path, ppktp):
        _, delays, counts = synthetic_counts(ppktp)
        scan = MeasuredScan(delays=delays, counts=np.round(counts), sigma=np.sqrt(counts))
        first = tmp_path / "a.csv"
        export_scan(scan, first)
        second = tmp_path / "b.csv"
        export_scan(load_scan(first), second)
        assert first.read_bytes() == second.read_bytes()


def seed_csv_text(meta, header, rows) -> str:
    """The per-cell ``format_float`` loop the writers replaced: the byte reference."""
    lines = [] if meta is None else [provenance_line(meta)]
    lines.append(header)
    for row in rows:
        lines.append(",".join(format_float(x) for x in row))
    return "\n".join(lines) + "\n"


def seed_grid_rows(axis_s, axis_i, *values):
    for j in range(len(axis_s)):
        for k in range(len(axis_i)):
            yield (axis_s[j], axis_i[k], *(v[j, k] for v in values))


@pytest.fixture(scope="module")
def deep_state(ppktp):
    """Chirped, filtered sinc state on a wide 70-point grid.

    The wide span drives the far corners down to subnormal magnitudes and
    leaves zero and negative-zero imaginary parts; 70 rows is not a multiple
    of the writer's block, so a partial last block is written too.
    """
    src = preset_with_pump(ppktp, pump_fwhm_nm=2.3, beta=3e-27, profile="sinc")
    state = build_jsa(src.pump, src.pm, auto_grid(src.pump, src.pm, n=70, span_fwhms=12.0))
    state = apply_spectral_filter(
        state, SpectralFilter(shape="gaussian", center=0.0, width=3e12, target="both")
    )
    amp = state.amplitude
    magnitudes = np.abs(amp[amp != 0])
    assert magnitudes.min() < 1e-300 and magnitudes.max() > 0.1
    assert np.any((amp.imag == 0) & np.signbit(amp.imag))
    return state


def state_meta(state, meta):
    grid = state.grid
    return {
        "grid": {
            "n_s": grid.n_s,
            "n_i": grid.n_i,
            "nu_s_min": grid.nu_s_min,
            "nu_s_max": grid.nu_s_max,
            "nu_i_min": grid.nu_i_min,
            "nu_i_max": grid.nu_i_max,
        },
        "provenance": state.provenance,
        **meta,
    }


class TestWritersByteIdentical:
    META = {"tool": "test", "config_sha256": "0123456789abcdef"}

    def test_jsa(self, tmp_path, deep_state):
        path = tmp_path / "jsa.csv"
        export_jsa_csv(deep_state, path, self.META)
        amp = deep_state.amplitude
        grid = deep_state.grid
        expected = seed_csv_text(
            state_meta(deep_state, self.META),
            "nu_s_rad_s,nu_i_rad_s,re,im",
            seed_grid_rows(grid.nu_s, grid.nu_i, amp.real, amp.imag),
        )
        assert path.read_bytes() == expected.encode()

    def test_jsi_nm_axes(self, tmp_path, deep_state):
        path = tmp_path / "jsi.csv"
        export_jsi_csv(deep_state, path, self.META)
        pm = deep_state.provenance["pm"]
        lam_s = 2.0 * math.pi * C_M_PER_S / (pm["omega_s0"] + deep_state.grid.nu_s) * 1e9
        lam_i = 2.0 * math.pi * C_M_PER_S / (pm["omega_i0"] + deep_state.grid.nu_i) * 1e9
        expected = seed_csv_text(
            state_meta(deep_state, self.META),
            "lambda_s_nm,lambda_i_nm,intensity",
            seed_grid_rows(lam_s, lam_i, np.abs(deep_state.amplitude) ** 2),
        )
        assert path.read_bytes() == expected.encode()

    def test_rows(self, tmp_path, deep_state):
        # the marginals.csv layout: one 1-D column per quantity
        nu = deep_state.grid.nu_s
        sig = np.sum(np.abs(deep_state.amplitude) ** 2, axis=1)
        path = tmp_path / "marginals.csv"
        write_rows(path, self.META, "nu_rad_s,signal,idler", [nu, sig, -sig])
        expected = seed_csv_text(self.META, "nu_rad_s,signal,idler", zip(nu, sig, -sig))
        assert path.read_bytes() == expected.encode()

    def test_rows_in_blocks(self, tmp_path, rng):
        # three full blocks and a remainder give the bytes of one pass
        n = 3 * dataio._GRID_BLOCK_CELLS + 17
        columns = [
            rng.standard_normal(n) * 10.0 ** rng.uniform(-30, 30, n),
            np.arange(n) * 0.5,
            rng.random(n),
        ]
        path = tmp_path / "rows.csv"
        write_rows(path, self.META, "a,b,c", columns)
        assert path.read_bytes() == seed_csv_text(self.META, "a,b,c", zip(*columns)).encode()

    def test_rows_memory_bounded(self, tmp_path):
        # formatted a block at a time, a long table costs about nothing per row
        n = 10**6
        columns = [np.linspace(-1e-11, 1e-11, n), np.linspace(0.0, 1.0, n)]
        tracemalloc.start()
        try:
            write_rows(tmp_path / "rows.csv", None, "a,b", columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * n

    def test_scans(self, tmp_path, ppktp):
        _, delays, counts = synthetic_counts(ppktp)
        scan = MeasuredScan(
            delays=delays, counts=counts, sigma=np.sqrt(counts), comments=("# run 7",)
        )
        path = tmp_path / "scan.csv"
        export_scan(scan, path, self.META)
        rows = zip(delays * 1e12, counts, np.sqrt(counts))
        head = seed_csv_text(self.META, "delay_ps,coincidences,sigma", rows).split("\n", 1)
        assert path.read_bytes() == "\n".join([head[0], "# run 7", head[1]]).encode()

        sim = gaussian_scan(ppktp.pump, ppktp.pm, delays)
        export_delay_scan(sim, path)
        expected = seed_csv_text(None, "tau_ps,rate", zip(sim.delays * 1e12, sim.rates))
        assert path.read_bytes() == expected.encode()


def format_float_cells(values, end):
    """The scalar reference for ``_format_cells``: ``format_float(v) + end`` as bytes."""
    return [(format_float(v) + end).encode() for v in values]


_FLOAT_BITS = st.integers(0, 2**64 - 1).map(lambda b: struct.unpack("<d", struct.pack("<Q", b))[0])
# 10-digit decimals ending in 5: the nearest double lies just off a 9-digit
# rounding tie, the case a scaled mantissa can round the wrong way
_NEAR_TIES = st.tuples(st.integers(10**8, 10**9 - 1), st.integers(-330, 298)).map(
    lambda me: float(f"{me[0]}5e{me[1]}")
)


class TestFormatCells:
    """The vectorized ``%.9g`` behind both writers, cell for cell against ``format_float``."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        values=st.lists(
            st.one_of(
                _FLOAT_BITS,
                st.floats(allow_subnormal=True),
                st.floats(1e-5, 1e9, exclude_max=True).flatmap(lambda x: st.sampled_from([x, -x])),
                st.integers(-(2**40), 2**40).map(float),
                _NEAR_TIES,
            ),
            min_size=1,
            max_size=300,
        ),
        end=st.sampled_from(["", ",", "\n"]),
    )
    def test_matches_format_float(self, values, end):
        assert _format_cells(values, end.encode()).tolist() == format_float_cells(values, end)

    @pytest.mark.parametrize("end", ["", ",", "\n"])
    def test_bulk_random_bits_and_magnitudes(self, rng, end):
        values = np.concatenate([
            rng.integers(0, 2**64, size=20_000, dtype=np.uint64).view(np.float64),
            rng.choice([-1.0, 1.0], 20_000) * 10.0 ** rng.uniform(-5, 9, 20_000),
            np.round(rng.uniform(-1e4, 1e4, 20_000), 2),
            [float(f"{m}5e{k}") for m, k in zip(rng.integers(10**8, 10**9, 20_000),
                                                 rng.integers(-330, 299, 20_000))],
            [s * float(f"1e{k}") for k in range(-323, 309) for s in (1, -1)],
        ])
        assert _format_cells(values, end.encode()).tolist() == format_float_cells(values, end)

    @pytest.mark.parametrize("end", ["", ",", "\n"])
    @pytest.mark.parametrize("value", [
        12345678.25,  # exact ties, rounded half to even
        123456789.5,
        999999999.5,  # rounds up into the next decade
        9.9999999995e-5,
        5e-324,  # smallest subnormal, and the smallest normal
        2.2250738585072014e-308,
        1.7976931348623157e308,
        1e-5, 1e-4, 1e8, 1e9,  # the switch between exponent and fixed layout
        -1e-5, -1e-4, -1e8, -1e9,
        math.nextafter(1e-4, 0.0), math.nextafter(1e9, 0.0),
        0.0, -0.0, math.inf, -math.inf, math.nan,
    ])
    def test_pinned(self, value, end):
        assert _format_cells([value], end.encode()).tolist() == format_float_cells([value], end)

    def test_shape_and_empty(self):
        assert _format_cells(np.full((2, 3), 0.5), b",").tolist() == [b"0.5,"] * 6
        assert _format_cells([], b"\n").tolist() == []


def jsi_lines(n=4):
    """Header and rows of an n x n nm-axis JSI with distinct values per cell."""
    lams = 1535.0 + 2.0 * (np.arange(n) - n // 2)
    rows = [
        f"{ls:g},{li:g},{1.0 + j * n + k:g}"
        for j, ls in enumerate(lams)
        for k, li in enumerate(lams)
    ]
    return ["lambda_s_nm,lambda_i_nm,intensity"], rows


def seed_load_jsi(path):
    """The amplitude and grid of the reader ``load_jsi`` replaced: the bit reference.

    It reads the whole file as text, keeps the stripped non-``#`` lines,
    parses them in one ``np.loadtxt`` call, fills a real intensity grid
    through ``np.unique(return_inverse=True)``, reorders wavelength axes
    with ``np.ix_`` and takes the square root; the state then made it complex.
    """
    lines = [s for s in map(str.strip, path.read_text(encoding="utf-8").splitlines())
             if s and s[0] != "#"]
    data = np.loadtxt(lines[1:], delimiter=",", comments=None, ndmin=2)
    axis_s, inv_s = np.unique(data[:, 0], return_inverse=True)
    axis_i, inv_i = np.unique(data[:, 1], return_inverse=True)
    intensity = np.zeros((axis_s.size, axis_i.size))
    intensity[inv_s, inv_i] = data[:, 2]
    nu_s, nu_i = axis_s, axis_i
    if lines[0].startswith("lambda_s_nm"):
        omega_s = wavelength_to_angular_frequency(axis_s * 1e-9)
        omega_i = wavelength_to_angular_frequency(axis_i * 1e-9)
        nu_s = omega_s - 0.5 * (omega_s.min() + omega_s.max())
        nu_i = omega_i - 0.5 * (omega_i.min() + omega_i.max())
        order_s, order_i = np.argsort(nu_s), np.argsort(nu_i)
        nu_s, nu_i = nu_s[order_s], nu_i[order_i]
        intensity = intensity[np.ix_(order_s, order_i)]
    grid = FrequencyGrid(nu_s.size, nu_i.size, float(nu_s[0]), float(nu_s[-1]),
                         float(nu_i[0]), float(nu_i[-1]))
    return np.asarray(np.sqrt(intensity), dtype=complex), grid


def assert_same_state(got, want):
    assert got.amplitude.tobytes() == want.amplitude.tobytes()
    assert got.grid == want.grid
    assert {**got.provenance, "source": ""} == {**want.provenance, "source": ""}


class TestLoadJsi:
    def test_nm_grid_conversion(self, tmp_path):
        # 11x11 grid at 1.8 nm pitch around 1535 nm
        lams = 1535.0 + 1.8 * (np.arange(11) - 5)
        lines = ["lambda_s_nm,lambda_i_nm,intensity"]
        for ls in lams:
            for li in lams:
                value = math.exp(-(((ls - 1535) ** 2 + (li - 1535) ** 2) / 8.0))
                lines.append(f"{ls},{li},{value}")
        path = tmp_path / "jsi.csv"
        write_scan_lines(path, lines)
        state = load_jsi(path)
        # endpoints of the converted axis match the exact unit conversion
        omega = 2 * math.pi * C_M_PER_S / (lams * 1e-9)
        omega0 = 0.5 * (omega.min() + omega.max())
        assert state.grid.nu_s_min == pytest.approx(omega.min() - omega0, rel=1e-12)
        assert state.grid.nu_s_max == pytest.approx(omega.max() - omega0, rel=1e-12)
        assert state.provenance["phase_assumed_zero"] is True
        assert state.provenance["kind"] == "measured"
        # amplitude is sqrt(intensity): peak 1 at the center
        assert np.abs(state.amplitude).max() == pytest.approx(1.0, rel=1e-9)

    def test_incomplete_grid(self, tmp_path):
        lines = ["lambda_s_nm,lambda_i_nm,intensity", "1533,1533,1", "1535,1533,1", "1533,1535,1"]
        path = tmp_path / "jsi.csv"
        write_scan_lines(path, lines)
        with pytest.raises(ParseError, match="full"):
            load_jsi(path)

    def test_any_row_order(self, tmp_path, rng):
        # shuffled nm rows give the sorted file's state bit for bit
        header, rows = jsi_lines()
        write_scan_lines(tmp_path / "a.csv", header + rows)
        shuffled = [rows[i] for i in rng.permutation(len(rows))]
        write_scan_lines(tmp_path / "b.csv", header + shuffled)
        want, got = load_jsi(tmp_path / "a.csv"), load_jsi(tmp_path / "b.csv")
        assert got.amplitude.tobytes() == want.amplitude.tobytes()
        assert got.grid == want.grid
        assert got.provenance == {**want.provenance, "source": str(tmp_path / "b.csv")}

    def test_non_positive_wavelength(self, tmp_path):
        rows = [f"{a:g},{b:g},1" for a in (0.0, 1.0) for b in (1.0, 2.0)]
        write_scan_lines(tmp_path / "jsi.csv", ["lambda_s_nm,lambda_i_nm,intensity"] + rows)
        with pytest.raises(ParseError, match="wavelengths must be > 0"):
            load_jsi(tmp_path / "jsi.csv")

    @pytest.mark.filterwarnings("error")
    def test_detuning_axes_not_exported_as_wavelengths(self, tmp_path):
        # detuning axes name no carrier, so no wavelength axis can be written
        axis = np.linspace(-2e12, 2e12, 5)
        rows = [f"{a:g},{b:g},1" for a in axis for b in axis]
        write_scan_lines(tmp_path / "jsi.csv", ["nu_s_rad_s,nu_i_rad_s,intensity"] + rows)
        state = load_jsi(tmp_path / "jsi.csv")
        with pytest.raises(DomainError, match="central frequencies"):
            export_jsi_csv(state, tmp_path / "out.csv")
        assert not (tmp_path / "out.csv").exists()

    def test_padded_cells_and_interleaved_blank_and_comment_lines(self, tmp_path):
        header, rows = jsi_lines()
        write_scan_lines(tmp_path / "a.csv", header + rows)
        padded = [" " + row.replace(",", " ,\t") + "  " for row in rows]
        for at, extra in ((12, "# lamp drift check"), (7, ""), (3, "   "), (0, "  # start")):
            padded.insert(at, extra)
        write_scan_lines(tmp_path / "b.csv", ["# measured", "", " " + header[0]] + padded)
        np.testing.assert_array_equal(
            load_jsi(tmp_path / "b.csv").amplitude, load_jsi(tmp_path / "a.csv").amplitude
        )

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("1535,1535,high", "non-numeric"),
            ("1535,1535", "expected 3 columns, got 2"),
            ("1535,1535,1,1", "expected 3 columns, got 4"),
            ("1535,1535,1 # note", "non-numeric"),
        ],
        ids=["non-numeric", "too-few", "too-many", "trailing-comment"],
    )
    def test_bad_row_reports_line(self, tmp_path, bad, message):
        header, rows = jsi_lines()
        rows[9] = bad
        path = tmp_path / "jsi.csv"
        # comment, header, blank line, then rows: row 9 sits on line 13
        write_scan_lines(path, ["# c"] + header + [""] + rows)
        with pytest.raises(ParseError, match=f":13: {message}"):
            load_jsi(path)

    def test_duplicate_cell(self, tmp_path):
        # the repeat fills the row count, so only the missing cell betrays it
        lines = ["lambda_s_nm,lambda_i_nm,intensity", "1533,1533,1", "1533,1535,1",
                 "1535,1533,1", "1533,1533,2"]
        path = tmp_path / "jsi.csv"
        write_scan_lines(path, lines)
        with pytest.raises(ParseError, match=r"duplicate cell \(1533, 1533\)"):
            load_jsi(path)

    @pytest.mark.parametrize("digits", ["1_5", "\u0661\u0665"], ids=["grouped", "non-ascii"])
    def test_float_only_digits_report_line(self, tmp_path, digits):
        # float() reads these as 15, the numeric parser does not
        header, rows = jsi_lines()
        rows[5] = digits + rows[5][2:]
        path = tmp_path / "jsi.csv"
        write_scan_lines(path, header + rows)
        with pytest.raises(ParseError, match=":7: non-numeric"):
            load_jsi(path)

    def test_non_finite_cell(self, tmp_path):
        header, rows = jsi_lines()
        rows[5] = rows[5].rsplit(",", 1)[0] + ",nan"
        path = tmp_path / "jsi.csv"
        write_scan_lines(path, header + rows)
        with pytest.raises(ParseError, match="non-finite"):
            load_jsi(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "jsi.csv"
        write_scan_lines(path, ["wavelength,other,z", "1,1,1"])
        with pytest.raises(ParseError, match="header"):
            load_jsi(path)

    def test_negative_intensity(self, tmp_path):
        lines = ["lambda_s_nm,lambda_i_nm,intensity", "1533,1533,1", "1533,1535,-1",
                 "1535,1533,1", "1535,1535,1"]
        path = tmp_path / "jsi.csv"
        write_scan_lines(path, lines)
        with pytest.raises(ParseError, match="negative"):
            load_jsi(path)

    def test_hom_prediction_from_measured_jsi(self, tmp_path, ppktp):
        # export a model JSI, re-import it as a "measurement" (zero phase)
        # and run the interference prediction on it; the approximate-phase
        # flag travels in the provenance
        state = build_jsa(ppktp.pump, ppktp.pm)
        path = tmp_path / "jsi.csv"
        export_jsi_csv(state, path)
        measured = load_jsi(path)
        assert measured.provenance["phase_assumed_zero"] is True
        scan = coincidence_scan(measured, default_delays(ppktp.pm))
        t_c = extract_dip(scan).t_c
        # the unchirped gaussian state has no phase, so the zero-phase
        # reconstruction reproduces its dip
        assert t_c == pytest.approx(1.16e-12, rel=0.02)

    def test_export_import_cycle(self, tmp_path, ppktp):
        state = build_jsa(ppktp.pump, ppktp.pm)
        path = tmp_path / "jsi.csv"
        export_jsi_csv(state, path)
        loaded = load_jsi(path)
        assert loaded.grid.n_s == state.grid.n_s
        # detuning axes agree after the nm round trip (small-bandwidth regime)
        assert loaded.grid.nu_s_max == pytest.approx(state.grid.nu_s_max, rel=1e-4)
        np.testing.assert_allclose(
            np.abs(loaded.amplitude) ** 2,
            np.abs(state.amplitude) ** 2,
            atol=1e-7,
        )

    def test_amplitude_adopted(self, tmp_path):
        header, rows = jsi_lines()
        write_scan_lines(tmp_path / "jsi.csv", header + rows)
        amplitude = load_jsi(tmp_path / "jsi.csv").amplitude
        assert amplitude.base is None and not amplitude.flags.writeable

    def test_non_uniform_detuning_axes_warn(self, tmp_path):
        axis = (0.0, 1.0, 3.0)
        rows = [f"{a:g},{b:g},1" for a in axis for b in axis]
        write_scan_lines(tmp_path / "jsi.csv", ["nu_s_rad_s,nu_i_rad_s,intensity"] + rows)
        state = load_jsi(tmp_path / "jsi.csv")
        assert (state.grid.nu_s_min, state.grid.nu_s_max, state.grid.n_s) == (0.0, 3.0, 3)
        assert state.provenance["warnings"] == [
            "detuning axes deviate from uniform frequency spacing by 33.3% of one step "
            "(snapped to uniform)"
        ]

    def test_non_uniform_wavelength_axes_warn(self, tmp_path):
        axis = (1530.0, 1531.0, 1533.0)
        rows = [f"{a:g},{b:g},1" for a in axis for b in axis]
        write_scan_lines(tmp_path / "jsi.csv", ["lambda_s_nm,lambda_i_nm,intensity"] + rows)
        (warning,) = load_jsi(tmp_path / "jsi.csv").provenance["warnings"]
        assert warning.startswith("wavelength axes deviate from uniform frequency spacing by ")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "body", ["", "\n\n", "   \n# later\n\t\n"], ids=["none", "blank", "noise"]
    )
    def test_header_only_file(self, tmp_path, body):
        path = tmp_path / "jsi.csv"
        path.write_text("# c\nlambda_s_nm,lambda_i_nm,intensity\n" + body, encoding="utf-8")
        with pytest.raises(ParseError, match="no data rows found"):
            load_jsi(path)

    @pytest.mark.parametrize("eol", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_line_ends(self, tmp_path, eol):
        header, rows = jsi_lines()
        write_scan_lines(tmp_path / "a.csv", header + rows)
        text = eol.join(["# measured"] + header + rows) + eol
        (tmp_path / "b.csv").write_bytes(text.encode("utf-8"))
        assert_same_state(load_jsi(tmp_path / "b.csv"), load_jsi(tmp_path / "a.csv"))

    @pytest.mark.parametrize("mark", ["\x0c", "\x1c", "\u2028"], ids=["form-feed", "fs", "ls"])
    def test_line_separator_inside_comment(self, tmp_path, mark):
        # only \n, \r\n and \r end a line: the comment stays whole, and its
        # tail is not taken for the header
        header, rows = jsi_lines()
        write_scan_lines(tmp_path / "a.csv", header + rows)
        write_scan_lines(tmp_path / "b.csv", [f"# page{mark}one", f"# end{mark}"] + header + rows)
        assert_same_state(load_jsi(tmp_path / "b.csv"), load_jsi(tmp_path / "a.csv"))

    def test_clean_file_parsed_in_one_pass(self, tmp_path, rng, monkeypatch):
        # shuffled rows, padded cells and empty lines need no second reading
        header, rows = jsi_lines()
        write_scan_lines(tmp_path / "a.csv", header + rows)
        shuffled = [" " + rows[i].replace(",", " , ") + "\t" for i in rng.permutation(len(rows))]
        shuffled.insert(5, "")
        write_scan_lines(tmp_path / "b.csv", ["# c", "", "  # d"] + header + shuffled)
        sources = []
        loadtxt = np.loadtxt
        def recording(src, **kwargs):
            sources.append(src)
            return loadtxt(src, **kwargs)

        monkeypatch.setattr(np, "loadtxt", recording)
        state = load_jsi(tmp_path / "b.csv")
        assert sources == [tmp_path / "b.csv"]
        assert state.amplitude.tobytes() == seed_load_jsi(tmp_path / "a.csv")[0].tobytes()

    def test_allocation_peak(self, tmp_path, ppktp):
        # the parsed (n^2, 3) table is 24 n^2 bytes; the amplitude adds 16 n^2
        n = 256
        state = build_jsa(ppktp.pump, ppktp.pm, auto_grid(ppktp.pump, ppktp.pm, n=n))
        path = tmp_path / "jsi.csv"
        export_jsi_csv(state, path)
        load_jsi(path)
        tracemalloc.start()
        try:
            load_jsi(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 24 * n * n

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        n_s=st.integers(2, 9),
        n_i=st.integers(2, 9),
        in_nm=st.booleans(),
        descending=st.booleans(),
        noise=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_messy_file_gives_clean_bits(self, n_s, n_i, in_nm, descending, noise, seed):
        # shuffled rows, padded cells, empty lines and comments before the
        # header keep the one-pass parse; whitespace-only and ``#`` lines in
        # the body take the line-by-line path; both give the old reader's bits
        rng = np.random.default_rng(seed)
        if in_nm:
            header = "lambda_s_nm,lambda_i_nm,intensity"
            axes = [rng.uniform(700, 1700) + rng.uniform(0.01, 3) * np.arange(n)
                    for n in (n_s, n_i)]
        else:
            header = "nu_s_rad_s,nu_i_rad_s,intensity"
            axes = [rng.uniform(-1e13, 1e13) + rng.uniform(1e9, 1e12) * np.arange(n)
                    for n in (n_s, n_i)]
        axes = [ax + rng.uniform(-0.3, 0.3, ax.size) * (ax[1] - ax[0]) for ax in axes]
        if descending:
            axes = [ax[::-1] for ax in axes]
        values = rng.random((n_s, n_i)) * 10.0 ** rng.uniform(-12, 3, (n_s, n_i))
        values[rng.random((n_s, n_i)) < 0.2] = 0.0
        with tempfile.TemporaryDirectory() as tmp:
            clean, messy = Path(tmp) / "clean.csv", Path(tmp) / "messy.csv"
            write_grid(clean, {"seed": seed}, header, *axes, (values,))
            lines = clean.read_text(encoding="utf-8").splitlines()
            pad = ["", " ", "\t", "  "]
            rows = [
                ",".join(rng.choice(pad) + cell + rng.choice(pad) for cell in row.split(","))
                for row in (lines[2:][i] for i in rng.permutation(len(lines) - 2))
            ]
            extras = ["", "   ", "\t", "# note", "  # indented  "] if noise else [""]
            for _ in range(rng.integers(0, 6)):
                rows.insert(rng.integers(0, len(rows) + 1), rng.choice(extras))
            text = "\n".join([lines[0], "# more", "", lines[1], *rows])
            messy.write_text(text + "\n" * int(rng.integers(0, 2)), encoding="utf-8")
            want, grid = seed_load_jsi(clean)
            for path in (clean, messy):
                state = load_jsi(path)
                assert state.amplitude.tobytes() == want.tobytes()
                assert state.grid == grid


class TestFitDip:
    def test_noiseless_recovery(self, ppktp):
        src, delays, counts = synthetic_counts(ppktp)
        scan = MeasuredScan(delays=delays, counts=counts)
        report = fit_dip(scan, model="gaussian-dip")
        truth = GAUSSIAN_FWHM_FACTOR * gaussian_dip_width(src.pm)
        assert report.t_c == pytest.approx(truth, rel=1e-3)
        assert report.visibility == pytest.approx(0.9733, abs=1e-4)
        assert report.residual_rms < 1e-6 * counts.max()

    def test_poisson_recovery_within_three_sigma(self, ppktp, rng):
        src, delays, counts = synthetic_counts(ppktp)
        noisy = rng.poisson(counts).astype(float)
        scan = MeasuredScan(delays=delays, counts=noisy)
        report = fit_dip(scan, model="gaussian-dip")
        truth = GAUSSIAN_FWHM_FACTOR * gaussian_dip_width(src.pm)
        assert abs(report.t_c - truth) < 3 * report.t_c_sigma
        assert report.t_c_sigma > 0

    def test_sinc_kernel_self_consistency(self, ppktp):
        src = preset_with_pump(ppktp, pump_fwhm_nm=2.0, profile="sinc")
        state = build_jsa(src.pump, src.pm)
        delays = default_delays(src.pm)
        scan_sim = coincidence_scan(state, delays)
        t_ref = extract_dip(scan_sim).t_c
        counts = 1e4 * scan_sim.rates
        kernel = sinc_dip_kernel(ppktp, 2.0)
        report = fit_dip(
            MeasuredScan(delays=delays, counts=counts), model="sinc-kernel-dip", kernel=kernel
        )
        assert report.t_c == pytest.approx(t_ref, rel=5e-3)

    def test_sinc_kernel_default_grid_unchanged(self, ppktp):
        # the kernel as built when sinc_dip_kernel ignored n_grid (build_jsa's own grid)
        src = preset_with_pump(ppktp, pump_fwhm_nm=2.0, profile="sinc")
        scan = coincidence_scan(
            build_jsa(src.pump, src.pm, grid=None), default_delays(src.pm, n=801, spans=4.0)
        )
        depth = 1.0 - scan.rates
        depth = depth / depth.max()
        center = scan.delays[int(np.argmax(depth))]
        u = (scan.delays - center) / intensity_fwhm(scan.delays, depth)
        kernel = sinc_dip_kernel(ppktp, 2.0)
        np.testing.assert_array_equal(kernel.u, u)
        np.testing.assert_array_equal(kernel.depth, depth)

    @pytest.mark.parametrize("pump_fwhm_nm", [0.7, 2.0, 4.5])
    def test_sinc_kernel_matches_matmul_overlap(self, ppktp, pump_fwhm_nm):
        src = preset_with_pump(ppktp, pump_fwhm_nm=pump_fwhm_nm, profile="sinc")
        state = build_jsa(src.pump, src.pm, auto_grid(src.pump, src.pm, n=128))
        delays = default_delays(src.pm, n=801, spans=4.0)
        depth = 1.0 - np.clip(1.0 - matmul_overlap(state, delays), 0.0, None)
        depth = depth / depth.max()
        center = delays[int(np.argmax(depth))]
        u = (delays - center) / intensity_fwhm(delays, depth)
        kernel = sinc_dip_kernel(ppktp, pump_fwhm_nm, n_grid=128)
        np.testing.assert_allclose(kernel.u, u, rtol=0, atol=1e-12)
        np.testing.assert_allclose(kernel.depth, depth, rtol=0, atol=1e-12)

    def test_sinc_kernel_honours_n_grid(self, ppktp):
        default = sinc_dip_kernel(ppktp, 2.0)
        coarse = sinc_dip_kernel(ppktp, 2.0, n_grid=256)
        assert not np.array_equal(coarse.depth, default.depth)

    @staticmethod
    def poisson_scans(ppktp, model, seeds):
        """Seeded Poisson scans of the dip ``model`` fits, at the kernel's 2 nm pump."""
        profile = "gaussian" if model == "gaussian-dip" else "sinc"
        src = preset_with_pump(ppktp, pump_fwhm_nm=2.0, profile=profile)
        delays = default_delays(src.pm)
        if profile == "gaussian":
            rates = gaussian_scan(src.pump, src.pm, delays).rates
        else:
            rates = coincidence_scan(build_jsa(src.pump, src.pm), delays).rates
        for seed in seeds:
            counts = np.random.default_rng(seed).poisson(1e4 * rates).astype(float)
            yield MeasuredScan(delays=delays, counts=counts)

    @pytest.mark.parametrize("model,rtol", [("gaussian-dip", 1e-6), ("sinc-kernel-dip", 1e-4)])
    def test_matches_curve_fit(self, ppktp, monkeypatch, model, rtol):
        optimize = pytest.importorskip("scipy.optimize")
        problems = []
        solve = dataio._levenberg_marquardt

        def recorded(residual, p0, lower, upper):
            fit = solve(residual, p0, lower, upper)
            problems.append((residual, p0, lower, upper, fit))
            return fit

        monkeypatch.setattr(dataio, "_levenberg_marquardt", recorded)
        kernel = sinc_dip_kernel(ppktp, 2.0) if model == "sinc-kernel-dip" else None
        for scan in self.poisson_scans(ppktp, model, range(10)):
            report = fit_dip(scan, model=model, kernel=kernel)
            # the same weighted residuals, p0 and bounds; the weights are in
            # the residuals, so they are absolute
            residual, p0, lower, upper, (p, r, _) = problems.pop()
            popt, pcov = optimize.curve_fit(
                lambda _, *q: residual(np.array(q)), scan.delays, np.zeros(scan.delays.size),
                p0=p0, bounds=(lower, upper), absolute_sigma=True, maxfev=20000,
            )
            assert p[3] == pytest.approx(popt[3], rel=rtol)
            assert report.t_c_sigma / report.t_c == pytest.approx(
                np.sqrt(pcov[3, 3]) / popt[3], rel=rtol
            )
            chi2 = residual(popt) @ residual(popt)
            assert r @ r <= chi2 * (1 + 1e-8)

    @pytest.mark.parametrize("model", ["gaussian-dip", "sinc-kernel-dip"])
    def test_iteration_cap_raises(self, ppktp, monkeypatch, model):
        monkeypatch.setattr(dataio, "_FIT_MAX_ITERATIONS", 1)
        kernel = sinc_dip_kernel(ppktp, 2.0) if model == "sinc-kernel-dip" else None
        scan = next(self.poisson_scans(ppktp, model, [0]))
        with pytest.raises(FitError, match=f"did not converge \\(model={model},"):
            fit_dip(scan, model=model, kernel=kernel)

    def test_kernel_required(self, ppktp):
        _, delays, counts = synthetic_counts(ppktp)
        scan = MeasuredScan(delays=delays, counts=counts)
        with pytest.raises(DomainError, match="kernel"):
            fit_dip(scan, model="sinc-kernel-dip")

    def test_unknown_model(self, ppktp):
        _, delays, counts = synthetic_counts(ppktp)
        with pytest.raises(DomainError, match="unknown dip model"):
            fit_dip(MeasuredScan(delays=delays, counts=counts), model="lorentzian")

    def test_flat_scan_width_guess_falls_back(self, monkeypatch):
        # a flat scan has no dip to measure: the width guess is a quarter of
        # the scan, and the fit still converges; other errors are not masked
        raised = []

        def spy(axis, values):
            try:
                return intensity_fwhm(axis, values)
            except DomainError as exc:
                raised.append(exc)
                raise

        monkeypatch.setattr(dataio, "intensity_fwhm", spy)
        scan = MeasuredScan(delays=np.linspace(-2e-12, 2e-12, 41), counts=np.full(41, 1000.0))
        report = fit_dip(scan)
        assert len(raised) == 1
        assert report.baseline == pytest.approx(1000.0)
        assert report.visibility == pytest.approx(0.0, abs=1e-9)
        assert report.t_c == pytest.approx(1e-12, rel=0.01)
        monkeypatch.setattr(dataio, "intensity_fwhm", lambda axis, values: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            fit_dip(scan)

    def test_unconstrained_fit_raises(self):
        delays = np.linspace(-1e-12, 1e-12, 12)
        counts = np.zeros(12)
        with pytest.raises((FitError, DomainError)):
            fit_dip(MeasuredScan(delays=delays, counts=counts))


class TestDurations:
    def test_convolved_duration_examples(self):
        assert round(convolved_duration(1535e-9, 5.84e-9, 10.14e-9) * 1e12, 2) == 0.68
        assert round(convolved_duration(1535e-9, 4.3e-9, 5.46e-9) * 1e12, 2) == 1.02
        assert round(convolved_duration(1535e-9, 3.06e-9, 3.12e-9) * 1e12, 2) == 1.58

    def test_symmetric_toy(self):
        # equal arms add in quadrature: sqrt(2) times one arm
        one = convolved_duration(1535e-9, 4e-9, 4e-9)
        single = convolved_duration(1535e-9, 4e-9, 4e-9) / math.sqrt(2)
        assert one == pytest.approx(math.sqrt(2) * single, rel=1e-12)


class TestTableReport:
    def test_three_row_report(self, ppktp):
        rows = table_report(ppktp, [0.7, 2.0, 4.5], profile="sinc")
        labels = [r.label for r in rows]
        assert labels == ["anticorrelated", "decorrelated", "correlated"]
        t_cs = [r.t_c_sim for r in rows]
        assert t_cs[0] < t_cs[1] < t_cs[2]
        decorr = rows[1]
        assert decorr.t_c_sim == pytest.approx(1.16e-12, rel=0.05)
        assert decorr.duration_pump == pytest.approx(0.43e-12, abs=0.005e-12)
        # convolution column follows from the simulated marginals
        expected_conv = convolved_duration(
            1535e-9, decorr.marginal_s_nm * 1e-9, decorr.marginal_i_nm * 1e-9
        )
        assert decorr.duration_conv == pytest.approx(expected_conv, rel=1e-12)
