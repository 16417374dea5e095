"""Tests for the command-line interface."""

import io
import json
import os
import shutil
import struct
import zlib

import pytest
from numpy.lib import format as npy

from repro.cli import EXPERIMENT_RUNNERS, main
from repro.core.ingest import verify_streaming_index


class TestListAndDemo:
    def test_list_experiments(self, capsys):
        assert main(["list-experiments"]) == 0
        out = capsys.readouterr().out.split()
        assert "table1" in out and "fig7" in out
        assert sorted(out) == sorted(EXPERIMENT_RUNNERS)

    def test_demo_runs(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "exact search" in out
        assert "precision@10" in out

    def test_collection_stats(self, capsys):
        assert main(["collection", "--scale", "test"]) == 0
        out = capsys.readouterr().out
        assert "descriptors" in out
        assert "dimensions:      24" in out


class TestExperimentCommand:
    def test_single_experiment(self, capsys, experiment_data):
        # experiment_data fixture pre-warms the TEST scale cache, so this
        # only renders.
        assert main(["experiment", "table1", "--scale", "test"]) == 0
        out = capsys.readouterr().out
        assert "[table1]" in out
        assert "SMALL" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "bogus", "--scale", "test"])

    def test_unknown_scale_rejected(self, capsys):
        assert main(["experiment", "table1", "--scale", "galactic"]) == 2
        assert "unknown scale" in capsys.readouterr().err


class TestSweepGrids:
    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("faultsim", "--rates", "nan"),
            ("servesim", "--fault-rates", "nan"),
            ("servesim", "--loads", "inf"),
            ("shardsim", "--fault-rates", "nan"),
            ("shardsim", "--shards", "nan"),
            ("shardsim", "--shards", "inf"),
            ("shardsim", "--shards", "2.7"),
            ("shardsim", "--hedge-factor", "nan"),
            ("shardsim", "--hedge-factor", "inf"),
        ],
    )
    def test_non_finite_or_fractional_values_rejected(
        self, command, flag, value, capsys, monkeypatch
    ):
        """Refused before any sweep runs, as a usage error naming the flag."""
        import repro.cli

        def no_sweep(scale):
            raise AssertionError(f"{command} {flag} {value} reached the sweep")

        monkeypatch.setattr(repro.cli, "prepare", no_sweep)
        assert main([command, flag, value, "--scale", "test"]) == 2
        assert f"repro: error: {flag}" in capsys.readouterr().err


class TestFileWorkflow:
    def test_generate_build_query_image_query(self, tmp_path, capsys):
        from repro.cli import main

        coll = str(tmp_path / "coll.dat")
        sysdir = str(tmp_path / "sys")
        assert main(["generate", coll, "--scale", "test"]) == 0
        assert main(["build", coll, sysdir, "--chunker", "sr"]) == 0
        assert main(["query", sysdir, coll, "--row", "3", "--k", "4"]) == 0
        out = capsys.readouterr().out
        assert "exact=True" in out
        assert main(["image-query", sysdir, coll, "--image", "1", "--top", "2"]) == 0
        out = capsys.readouterr().out
        assert "query image 1" in out
        assert main(["image-query", sysdir, coll, "--image", "1", "--top", "-1"]) == 2
        assert "top_images must be at least 1" in capsys.readouterr().err

        # The same system with its index rewritten as the previous format
        # (version 3: header + entries, no rectangle block) is refused
        # whole, not read without its rectangles.
        import struct

        from repro.storage.index_file import index_file_bytes

        index_path = tmp_path / "sys" / "base-000000.idx"
        data = bytearray(index_path.read_bytes())
        _, _, dims, n_chunks, _ = struct.unpack_from("<8sIIQ8s", data, 0)
        struct.pack_into("<I", data, 8, 3)
        index_path.write_bytes(bytes(data[: index_file_bytes(n_chunks, dims)]))
        assert main(["query", sysdir, coll, "--row", "3", "--k", "4"]) != 0
        assert "unsupported index file version 3" in capsys.readouterr().err

    def test_damaged_sidecars_are_corrupt_files(self, tmp_path, capsys):
        """A damaged system file (mapping and counters beside the index)
        is exit 2 and a ``CorruptFileError`` naming the file — no
        traceback, no bare key."""
        import io

        import numpy as np
        from numpy.lib.format import read_array

        coll = str(tmp_path / "c.dat")
        sysdir = tmp_path / "s"
        main(["generate", coll, "--scale", "test"])
        main(["build", coll, str(sysdir)])
        query = ["query", str(sysdir), coll, "--row", "3", "--k", "4"]
        assert main(query) == 0
        capsys.readouterr()

        def edited(edit):
            def mutate(data: bytes) -> bytes:
                stream = io.BytesIO(data)
                counters, ids, images = (read_array(stream) for _ in range(3))
                rewritten = io.BytesIO()
                for array in edit(counters, ids, images):
                    np.save(rewritten, array)
                return rewritten.getvalue()

            return mutate

        path = sysdir / "base-000000.sys"
        pristine = path.read_bytes()
        for mutate in [
            lambda data: data[: len(data) // 2],
            lambda data: data + b"\0",
            edited(lambda counters, ids, images: (counters, ids[:-3], images[:-3])),
            edited(lambda counters, ids, images: (counters[:1], ids, images)),
            edited(lambda counters, ids, images: (counters * 0, ids, images)),
            edited(lambda counters, ids, images: (counters, ids, images.astype(float))),
        ]:
            path.write_bytes(mutate(pristine))
            assert main(query) == 2
            err = capsys.readouterr().err
            assert "repro: error: CorruptFileError: system file" in err
            assert "base-000000.sys" in err
        path.write_bytes(pristine)
        assert main(query) == 0

    def test_a_directory_in_the_fixed_name_layout_is_refused(self, tmp_path, capsys):
        """Files named ``chunks.*`` and no manifest: exit 2, nothing read."""
        coll = str(tmp_path / "c.dat")
        sysdir = tmp_path / "s"
        main(["generate", coll, "--scale", "test"])
        main(["build", coll, str(sysdir)])
        for kind in ("dat", "idx", "va"):
            (sysdir / f"base-000000.{kind}").rename(sysdir / f"chunks.{kind}")
        (sysdir / "MANIFEST.json").unlink()
        capsys.readouterr()
        assert main(["query", str(sysdir), coll, "--row", "3"]) == 2
        assert "repro: error: CorruptFileError: no index manifest" in (
            capsys.readouterr().err
        )

    def test_verify_index_checks_build_output(self, tmp_path, capsys):
        coll = str(tmp_path / "c.dat")
        sysdir = str(tmp_path / "s")
        main(["generate", coll, "--scale", "test"])
        main(["build", coll, sysdir, "--chunker", "bag", "--chunk-size", "64"])
        capsys.readouterr()
        assert main(["verify-index", sysdir]) == 0
        assert "index ok" in capsys.readouterr().out

    def test_query_row_out_of_range(self, tmp_path, capsys):
        from repro.cli import main

        coll = str(tmp_path / "c.dat")
        sysdir = str(tmp_path / "s")
        main(["generate", coll, "--scale", "test"])
        main(["build", coll, sysdir])
        assert main(["query", sysdir, coll, "--row", "99999999"]) == 2
        assert "out of range" in capsys.readouterr().err


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """A ``repro build`` directory: base, code and system files."""
    root = tmp_path_factory.mktemp("built")
    sysdir = str(root / "s")
    main(["generate", str(root / "c.dat"), "--scale", "test"])
    main(["build", str(root / "c.dat"), sysdir, "--chunk-size", "64"])
    return sysdir


class TestBatchSearchOutput:
    def test_stdout_repeats_and_the_timing_goes_to_stderr(self, built, capsys):
        collection = os.path.join(os.path.dirname(built), "c.dat")
        runs = []
        for _ in range(2):
            assert main(["batch-search", built, collection, "--batch", "8"]) == 0
            runs.append(capsys.readouterr())
        assert runs[0].out == runs[1].out
        assert "exact completions:" in runs[0].out
        assert "wall clock" not in runs[0].out
        for run in runs:
            assert "wall clock:" in run.err and "queries/s" in run.err


class TestVerifyIndexReadsTheCodeFile:
    """``verify-index`` opens the code file as a search would (header bound
    to the base files, every block CRC-checked) and re-encodes every block
    from its base chunk, so damage there fails verification instead of a
    later search."""

    @staticmethod
    def damaged_copy(built, tmp_path, damage):
        damaged = tmp_path / "damaged"
        shutil.copytree(built, damaged)
        path = damaged / "base-000000.va"
        raw = bytearray(path.read_bytes())
        damage(raw, json.loads((damaged / "MANIFEST.json").read_text()))
        path.write_bytes(raw)
        return str(damaged)

    @staticmethod
    def flip_block_byte(raw, manifest):
        raw[32 + 5] ^= 0x10  # the 32-byte header, then block 0's codes

    @staticmethod
    def flip_header_byte(raw, manifest):
        raw[28] ^= 0x01  # the index file's binding CRC

    @staticmethod
    def recode_block_byte(raw, manifest):
        """Another cell number in block 0, under a CRC that matches it."""
        end = 32 + 12 * manifest["chunks"][0]["n_descriptors"]  # 24-d: 12 rows
        raw[32] ^= 0x01
        raw[end : end + 4] = struct.pack("<I", zlib.crc32(raw[32:end]))

    @pytest.mark.parametrize(
        "damage, reason",
        [
            ("flip_block_byte", "code block 0 failed its CRC32 check"),
            ("flip_header_byte", "stale or torn save"),
            ("recode_block_byte", "code block 0 is not its chunk's cell codes"),
        ],
        ids=["block", "header", "recoded"],
    )
    def test_damage_fails_the_codes_check_naming_the_file(
        self, built, tmp_path, capsys, damage, reason
    ):
        damaged = self.damaged_copy(built, tmp_path, getattr(self, damage))
        report = verify_streaming_index(damaged)
        assert not report["ok"]
        failed = {c["name"]: c["detail"] for c in report["checks"] if not c["ok"]}
        assert list(failed) == ["codes"]
        assert failed["codes"].startswith("base-000000.va: ")
        assert reason in failed["codes"]
        capsys.readouterr()
        assert main(["verify-index", damaged]) == 2
        captured = capsys.readouterr()
        assert "\ncodes      FAIL base-000000.va: " in captured.out
        assert "verification failed" in captured.err
        assert "Traceback" not in captured.err

    def test_an_absent_code_file_is_reported_not_failed(self, built, tmp_path, capsys):
        directory = tmp_path / "without"
        shutil.copytree(built, directory)
        (directory / "base-000000.va").unlink()
        report = verify_streaming_index(str(directory))
        assert report["ok"]
        codes = next(c for c in report["checks"] if c["name"] == "codes")
        assert codes["detail"].startswith("no code file base-000000.va")
        capsys.readouterr()
        assert main(["verify-index", str(directory)]) == 0


class TestVerifyIndexReadsTheSystemFile:
    """``verify-index`` reads a saved system's ``base-<g>.sys`` as
    ``ImageRetrievalSystem.load`` does, so damage there fails verification
    instead of the next load."""

    @staticmethod
    def flip_id_byte(raw):
        """The top byte of descriptor id 100 (the second ``.npy`` array)."""
        stream = io.BytesIO(bytes(raw))
        npy.read_array(stream)  # the counters
        npy.read_magic(stream)  # the ids' header, format 1.0 as np.save writes it
        npy.read_array_header_1_0(stream)
        raw[stream.tell() + 8 * 100 + 7] ^= 0x40

    @staticmethod
    def truncate(raw):
        del raw[len(raw) - 9 :]

    @pytest.mark.parametrize("damage", ["flip_id_byte", "truncate"])
    def test_damage_fails_the_system_check(self, built, tmp_path, capsys, damage):
        damaged = tmp_path / "damaged"
        shutil.copytree(built, damaged)
        path = damaged / "base-000000.sys"
        raw = bytearray(path.read_bytes())
        getattr(self, damage)(raw)
        path.write_bytes(raw)
        capsys.readouterr()
        report_path = tmp_path / "report.json"
        assert main(["verify-index", str(damaged), "--json", str(report_path)]) == 2
        captured = capsys.readouterr()
        assert "\nsystem     FAIL system file " in captured.out
        assert "verification failed" in captured.err
        assert "Traceback" not in captured.err
        report = json.loads(report_path.read_text())
        assert report["ok"] is False
        failed = [check["name"] for check in report["checks"] if not check["ok"]]
        assert failed == ["system"]

    def test_an_intact_system_file_passes(self, built, capsys):
        capsys.readouterr()
        assert main(["verify-index", built]) == 0
        out = capsys.readouterr().out
        assert "\nsystem     ok   base-000000.sys: maps the index's " in out

    def test_an_absent_system_file_is_reported_not_failed(self, built, tmp_path, capsys):
        directory = tmp_path / "without"
        shutil.copytree(built, directory)
        (directory / "base-000000.sys").unlink()
        capsys.readouterr()
        assert main(["verify-index", str(directory)]) == 0
        out = capsys.readouterr().out
        assert "\nsystem     ok   no system file base-000000.sys" in out


class TestIngestSimCommand:
    def test_watch_mode_with_json(self, tmp_path, capsys):
        import json

        report_path = str(tmp_path / "out.json")
        assert (
            main(
                [
                    "ingestsim",
                    "--scale",
                    "test",
                    "--steps",
                    "2",
                    "--json",
                    report_path,
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "final verify ok: True" in out
        with open(report_path) as handle:
            report = json.load(handle)
        assert report["experiment"] == "ingestsim"
        assert len(report["series"]) == 2

    def test_crash_matrix_mode(self, capsys):
        assert main(["ingestsim", "--scale", "test", "--crash-matrix", "3"]) == 0
        out = capsys.readouterr().out
        assert "all recoveries consistent: True" in out

    def test_bad_config_rejected(self, capsys):
        assert main(["ingestsim", "--scale", "test", "--steps", "0"]) == 2
        assert "error" in capsys.readouterr().err


class TestVerifyIndexCommand:
    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        """The streaming directory a short ``ingestsim`` run leaves behind."""
        workdir = str(tmp_path_factory.mktemp("ingest") / "stream")
        argv = ["ingestsim", "--scale", "test", "--steps", "2", "--workdir", workdir]
        assert main(argv) == 0
        return workdir

    def test_verify_after_ingest(self, workdir, capsys):
        capsys.readouterr()
        assert main(["verify-index", workdir]) == 0
        out = capsys.readouterr().out
        assert "index ok" in out

    def test_damaged_manifest_prints_its_checks_and_fails(
        self, workdir, tmp_path, capsys
    ):
        """A chunk entry without ``base_ref``: a check line with FAIL and
        exit 2, not a bare ``KeyError`` message."""
        damaged = str(tmp_path / "damaged")
        shutil.copytree(workdir, damaged)
        path = os.path.join(damaged, "MANIFEST.json")
        with open(path) as handle:
            manifest = json.load(handle)
        del manifest["chunks"][0]["base_ref"]
        with open(path, "w") as handle:
            json.dump(manifest, handle)
        capsys.readouterr()
        assert main(["verify-index", damaged]) == 2
        captured = capsys.readouterr()
        assert captured.out.startswith("manifest   FAIL ")
        assert "'base_ref'" in captured.out
        assert "verification failed" in captured.err
        assert "Traceback" not in captured.err

    def test_missing_directory_fails(self, tmp_path, capsys):
        assert main(["verify-index", str(tmp_path / "nope")]) == 2
        err = capsys.readouterr().err
        assert "verification failed" in err
