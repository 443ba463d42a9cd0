"""JSON encodings: schema shape and lossless round trips."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from quatext import (BaseMismatch, construct_h8, d4_construct, d4_verify, element,
                     enumerate_d4, enumerate_h8)
from quatext.serialize import (
    d4cert_dict,
    decode_d4cert,
    decode_element,
    decode_h8cert,
    decode_rational,
    encode_element,
    encode_rational,
    factorization_dict,
    h8cert_dict,
    runreport_dict,
    scan_report_dict,
    table_report_dict,
)
from quatext.symbols import factor_discriminant


class TestScalars:
    def test_rational_encoding(self):
        assert encode_rational(6) == "6"
        assert encode_rational(Fraction(-3, 2)) == "-3/2"
        assert decode_rational("-3/2") == Fraction(-3, 2)
        assert decode_rational("7") == 7

    @given(st.fractions(min_value=-10**9, max_value=10**9, max_denominator=10**6))
    def test_rational_round_trip(self, q):
        assert decode_rational(encode_rational(q)) == q

    def test_element_round_trip(self):
        x = element(5, 8, 6, 1, Fraction(3, 2), Fraction(1, 2))
        enc = encode_element(x)
        assert enc["base"] == ["5", "8"]
        assert enc["coords"] == ["6", "1", "3/2", "1/2"]
        assert decode_element(json.loads(json.dumps(enc))) == x

    @pytest.mark.parametrize("coords", [["6", "1", "3/2"], ["6", "1", "3/2", "1/2", "0"]])
    def test_element_needs_four_coordinates(self, coords):
        with pytest.raises(ValueError, match="values to unpack"):
            decode_element({"base": ["5", "8"], "coords": coords})

    def test_element_base_is_checked(self):
        with pytest.raises(BaseMismatch):
            decode_element({"base": ["5", "9"], "coords": ["1", "0", "0", "0"]})


class TestDocuments:
    def test_factorization_schema(self):
        doc = factorization_dict(factor_discriminant(-255))
        assert doc == {"schema": "factorization/1", "d": "-255",
                       "parts": ["-3", "5", "17"]}

    def test_h8_schema_fields(self):
        doc = h8cert_dict(construct_h8(enumerate_h8(520)[0]))
        assert doc["schema"] == "h8cert/1"
        assert doc["d"] == "520"
        assert doc["roles"] == {"d1": "5", "d2": "8", "d3": "13"}
        assert doc["conics"]["first"]["coefficients"] == ["5", "-8", "13"]
        assert doc["conics"]["first"]["point"] == ["2", "3", "2"]
        assert doc["svector"] == {"psi1": "-1", "psi2": "-1", "psi3": "-1"}
        assert doc["rho_sign"] == "-1"
        assert doc["galois_class"] == "H8"
        assert doc["twist"] == "none"
        assert doc["infinity"]["lhs"] == "-1"
        assert doc["totally_positive"] is True

    def test_h8_round_trip(self):
        for d in (520, -255, 1480, -120):
            cert = construct_h8(enumerate_h8(d)[0])
            wire = json.loads(json.dumps(h8cert_dict(cert)))
            assert decode_h8cert(wire) == cert

    def test_h8_rejects_wrong_schema(self):
        doc = h8cert_dict(construct_h8(enumerate_h8(520)[0]))
        doc["schema"] = "h8cert/2"
        with pytest.raises(ValueError, match="unexpected schema"):
            decode_h8cert(doc)

    def test_d4_schema_fields(self):
        doc = d4cert_dict(d4_construct(enumerate_d4(680)[0]))
        assert doc["schema"] == "d4cert/1"
        assert doc["conic"] == {"coefficients": ["1", "-8", "-17"],
                                "point": ["5", "1", "1"]}
        assert doc["alpha"] == ["-5", "-1"]
        assert doc["norm_root"] == "1"
        assert doc["svector"] == {"sigma": "1", "tau": "1", "sigma_tau": "-1"}
        assert doc["galois_class"] == "D4"
        assert doc["degenerate"] is False

    def test_d4_round_trip(self):
        for d in (680, 136, 205):
            cert = d4_construct(enumerate_d4(d)[0])
            wire = json.loads(json.dumps(d4cert_dict(cert)))
            back = decode_d4cert(wire)
            assert back == cert
            assert d4_verify(back)

    def test_d4_rejects_wrong_schema(self):
        with pytest.raises(ValueError, match="unexpected schema"):
            decode_d4cert({"schema": "h8cert/1"})


class TestReports:
    def test_runreport(self):
        doc = runreport_dict(520, "h8", [{"ok": True}])
        assert doc == {"schema": "runreport/1", "d": "520", "mode": "h8",
                       "entries": [{"ok": True}]}

    def test_scan_report(self):
        doc = scan_report_dict(-600, 600, "d4", [])
        assert doc["schema"] == "scanreport/1"
        assert (doc["lo"], doc["hi"], doc["mode"]) == ("-600", "600", "d4")

    def test_table_report_all_pass(self):
        doc = table_report_dict([{"pass": True}, {"pass": True}])
        assert doc["schema"] == "table2/1" and doc["all_pass"] is True
        assert table_report_dict([{"pass": True}, {"pass": False}])["all_pass"] is False
