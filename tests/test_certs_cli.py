import json
from fractions import Fraction as F

import pytest

from hgdecide.certs import (
    certificate_dict,
    load_instance,
    parse_instance,
    serialize_certificate,
    verify_certificate,
)
from hgdecide.cli import decide_document, main
from hgdecide.corpus import FAMILIES, generate_documents
from hgdecide.errors import ParseError


def doc(p, q, u0, t, problem="membership", mode="auto"):
    return {"p": p, "q": q, "u0": u0, "t": t, "problem": problem, "mode": mode}


WORKED = doc([13, -4, 1], [5, -4, 1], "1", "1/13")


class TestDocuments:
    def test_round_trip(self):
        d = parse_instance(WORKED)
        assert d.to_dict() == WORKED
        again = parse_instance(d.to_dict())
        assert again.inst == d.inst and again.mode == d.mode

    @pytest.mark.parametrize(
        "broken,needle",
        [
            ({**WORKED, "t": "1/0"}, "t"),
            ({**WORKED, "u0": "x"}, "u0"),
            ({**WORKED, "p": []}, "p"),
            ({**WORKED, "p": [1, "a"]}, "p"),
            ({**WORKED, "problem": "reachability"}, "problem"),
            ({**WORKED, "mode": "magic"}, "mode"),
            ({**WORKED, "p": [-3, 1]}, "p/q"),
        ],
    )
    def test_diagnostics_name_the_field(self, broken, needle):
        with pytest.raises(ParseError) as exc:
            parse_instance(broken)
        assert needle in str(exc.value)

    def test_missing_field(self):
        with pytest.raises(ParseError):
            parse_instance({"p": [1, 1]})


class TestCertificates:
    def test_engine_output_verifies(self):
        for d in [
            WORKED,
            doc([13, -4, 1], [5, -4, 1], "1", "1/26", "threshold"),
            doc([1], [2], "3", "48"),
            doc([2, 1], [1, 1], "1", "1/7"),
            doc([-1, -2, 1], [-4, -2, 1], "1", "3/7", mode="conditional"),
            doc([1, 1], [-3, 1], "2", "-6"),
        ]:
            din = parse_instance(d)
            cert = decide_document(din, __import__("hgdecide.config", fromlist=["DEFAULT_CONFIG"]).DEFAULT_CONFIG)
            assert verify_certificate(cert) == [], (d, verify_certificate(cert))

    def test_tampered_witness_rejected(self):
        din = parse_instance(WORKED)
        from hgdecide.config import DEFAULT_CONFIG

        cert = decide_document(din, DEFAULT_CONFIG)
        cert["witness"] = 3
        assert verify_certificate(cert)

    def test_tampered_exit_code_rejected(self):
        din = parse_instance(WORKED)
        from hgdecide.config import DEFAULT_CONFIG

        cert = decide_document(din, DEFAULT_CONFIG)
        cert["exit_code"] = 11
        assert any("exit code" in p for p in verify_certificate(cert))

    def test_serialization_deterministic(self):
        from hgdecide.config import DEFAULT_CONFIG

        din = parse_instance(WORKED)
        a = certificate_dict(din, __import__("hgdecide.equality", fromlist=["decide"]).decide(din.inst, DEFAULT_CONFIG))
        b = certificate_dict(din, __import__("hgdecide.equality", fromlist=["decide"]).decide(din.inst, DEFAULT_CONFIG))
        assert serialize_certificate(a) == serialize_certificate(b)


class TestCorpus:
    def test_deterministic(self):
        a = generate_documents(7, 20, "all")
        b = generate_documents(7, 20, "all")
        assert a == b
        c = generate_documents(8, 20, "all")
        assert a != c

    @pytest.mark.parametrize("family", FAMILIES)
    def test_families_parse_and_decide(self, family):
        from hgdecide.config import DEFAULT_CONFIG

        for d in generate_documents(3, 6, family):
            din = parse_instance(d)
            cert = decide_document(din, DEFAULT_CONFIG)
            assert cert["verdict"] in ("member", "not_member", "holds", "fails")

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            generate_documents(1, 1, "sextic")


class TestCLI:
    def test_decide_exit_codes(self, tmp_path, capsys):
        f = tmp_path / "inst.json"
        f.write_text(json.dumps(WORKED))
        assert main(["decide", str(f)]) == 0
        capsys.readouterr()
        f.write_text(json.dumps(doc([13, -4, 1], [5, -4, 1], "1", "1/7")))
        assert main(["decide", str(f)]) == 1
        capsys.readouterr()
        f.write_text(json.dumps(doc([-1, -2, 1], [-4, -2, 1], "1", "3/7")))
        assert main(["decide", str(f)]) == 11
        capsys.readouterr()
        f.write_text(json.dumps(doc([-1, -2, 1], [-4, -2, 1], "1", "4")))
        assert main(["decide", str(f)]) == 0  # witness at 1, unconditional
        capsys.readouterr()
        f.write_text("{bad json")
        assert main(["decide", str(f)]) == 3
        capsys.readouterr()
        f.write_text(json.dumps(doc([2, -8, -4, 0, 1], [6, -8, -4, 0, 1], "1", "1/2")))
        assert main(["decide", str(f)]) == 2  # no matching: unsupported
        capsys.readouterr()

    def test_decide_verify_round_trip(self, tmp_path, capsys):
        f = tmp_path / "inst.json"
        out = tmp_path / "cert.json"
        f.write_text(json.dumps(WORKED))
        assert main(["decide", str(f), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["verify", str(out)]) == 0
        capsys.readouterr()

    def test_eval_and_oracle(self, tmp_path, capsys):
        f = tmp_path / "inst.json"
        f.write_text(json.dumps(WORKED))
        assert main(["eval", str(f), "--terms", "4"]) == 0
        assert capsys.readouterr().out.strip() == "1, 5/13, 1/13, 1/117"
        assert main(["oracle", str(f), "--upto", "10"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {"kind": "found_membership", "index": 2, "up_to": None}

    def test_canon(self, tmp_path, capsys):
        f = tmp_path / "inst.json"
        f.write_text(json.dumps(WORKED))
        assert main(["canon", str(f), "--bits", "96"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["theta"] == ["1/39", "0"] and out["f"] == [0, 0, 1]
        assert abs(out["enclosure"]["approx"] - 4.7793728e-05) < 1e-10

    def test_recognize(self, capsys):
        assert main(["recognize", "--coeffs", "1,0,0,-1,0,0,1"]) == 0
        out = capsys.readouterr().out
        assert "symmetric pairing: NO (max matching size 0 of 6 vertices)" in out
        assert "cyclotomic index 18" in out
        assert main(["recognize", "--coeffs", "13,-4,1"]) == 0
        out = capsys.readouterr().out
        assert "symmetric pairing: YES (1 pairs)" in out

    def test_unconditional_mode_rejects_real_quadratic(self, tmp_path, capsys):
        f = tmp_path / "inst.json"
        f.write_text(json.dumps(doc([-1, -2, 1], [-4, -2, 1], "1", "3/7", mode="unconditional")))
        assert main(["decide", str(f)]) == 2
        capsys.readouterr()

    def test_scan_cap_on_near_tie_is_resource_error(self, tmp_path, capsys, monkeypatch):
        # t = L * (1 + 2^-60) rounded down to a multiple of 2^-140, where
        # L = sinh(pi)/(39 sinh(3 pi)) is the worked example's limit: the
        # decreasing tail drops below t only about 2^60 terms in, so the
        # threshold hunt must end at the scan cap as a resource error
        t = "66614734727671937059123508434769531341/1393796574908163946345982392040522594123776"
        f = tmp_path / "tie.json"
        f.write_text(json.dumps(doc([13, -4, 1], [5, -4, 1], "1", t, "threshold")))
        monkeypatch.setenv("HG_SCAN_CAP", "3000")
        assert main(["decide", str(f)]) == 4
        assert "resource limit" in capsys.readouterr().err

    def test_decide_many_files(self, tmp_path, capsys):
        f1 = tmp_path / "a.json"
        f2 = tmp_path / "b.json"
        f1.write_text(json.dumps(WORKED))
        f2.write_text(json.dumps(doc([13, -4, 1], [5, -4, 1], "1", "1/7")))
        assert main(["decide", str(f1), str(f2)]) == 1
        capsys.readouterr()

    def test_corpus_round_trip(self, tmp_path, capsys):
        outdir = tmp_path / "corpus"
        assert main(["corpus", "--seed", "7", "--count", "10",
                     "--family", "quadratic-imaginary", "--outdir", str(outdir)]) == 0
        paths = capsys.readouterr().out.split()
        assert len(paths) == 10
        from hgdecide.config import DEFAULT_CONFIG

        for p in paths:
            din = load_instance(p)
            assert din.inst.p.is_monic
        # every emitted file is accepted by decide
        cert = decide_document(load_instance(paths[0]), DEFAULT_CONFIG)
        assert verify_certificate(cert) == []
