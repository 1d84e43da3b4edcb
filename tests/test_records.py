"""Behaviour of the package's records: value equality and hashing, read-only
fields, field names and order, and repr text."""

import pytest

from lpackets.coxeter import (
    CellPartition,
    CoxeterGroup,
    KLTable,
    cells,
    enumerate_weyl,
    kl_table,
)
from lpackets.fq import Field, field
from lpackets.groups import Closure, Packet, Stratum, closure, cyclic
from lpackets.oracle import OracleResult, oracle_count
from lpackets.report import CountReport, spectral_report
from lpackets.rootdata import (
    FrobeniusTwist,
    GroupSpec,
    RootDatum,
    SubSystem,
    TorusOrbit,
    centralizer_subdatum,
    parse_group_spec,
)
from lpackets.spectral import ExtendedComponentGroup, enumerate_ss_classes
from lpackets.springer import SpecialClassRecord, special_classes

# every record but ``Closure``, with its field names in order
FIELDS = {cls: tuple(names.split()) for cls, names in {
    CoxeterGroup: "datum generators elements words length index left right inverse",
    KLTable: "cox leq polynomials mu",
    CellPartition: "cox left_cells right_cells two_sided_cells cell_of",
    Field: "q p k add mul neg inv gen",
    Packet: "x_label size group_label",
    Stratum: "ss_label labels group_desc packets",
    OracleResult: "name q order class_count",
    CountReport: "group cartan q pipeline strata conventions oracle_total",
    RootDatum: "rank roots coroots simple_indices cartan_label",
    FrobeniusTwist: "q p sigma_y",
    GroupSpec: "datum twist components name",
    SubSystem: "ambient root_positions positive_positions simple_positions "
               "factors factor_types",
    TorusOrbit: "rep orbit modulus key",
    ExtendedComponentGroup: "abar f_action description",
    SpecialClassRecord: "type_label class_label dim a_of_u abar_label "
                        "dual_class cell_id",
}.items()}

# records holding a dict or a list: hashing them raises TypeError
UNHASHABLE = {CoxeterGroup, KLTable, CellPartition, CountReport}


@pytest.fixture(scope="module")
def samples():
    spec = parse_group_spec("sl2", q=3)
    cox = enumerate_weyl(spec.datum)
    kl = kl_table(cox)
    report = spectral_report(spec)
    stratum = report.strata[0]
    return {
        CoxeterGroup: cox,
        KLTable: kl,
        CellPartition: cells(kl),
        Field: field(4),
        Packet: stratum.packets[0],
        Stratum: stratum,
        OracleResult: oracle_count("sl2", 3),
        CountReport: report,
        RootDatum: spec.datum,
        FrobeniusTwist: spec.twist,
        GroupSpec: spec,
        SubSystem: centralizer_subdatum(spec.datum, (0, 1)),
        TorusOrbit: enumerate_ss_classes(spec)[0],
        ExtendedComponentGroup: ExtendedComponentGroup(cyclic(1), (0,), "1"),
        SpecialClassRecord: special_classes("A1")[0],
    }


RECORDS = list(FIELDS)
IDS = [cls.__name__ for cls in RECORDS]


def twin(record):
    """A second record of the same class, built from the same field values."""
    return type(record)(**{f: getattr(record, f) for f in FIELDS[type(record)]})


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_equal_fields_make_equal_records(samples, cls):
    record = samples[cls]
    assert type(record) is cls
    assert record._fields == FIELDS[cls]
    other = twin(record)
    assert other is not record
    assert other == record


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_records_hash_by_their_fields(samples, cls):
    record = samples[cls]
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(twin(record)) == hash(record)


@pytest.mark.parametrize("cls", RECORDS, ids=IDS)
def test_fields_are_read_only(samples, cls):
    record = samples[cls]
    for name in FIELDS[cls]:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))


def test_packet_repr():
    assert repr(Packet("e", 1, "1")) == "Packet(x_label='e', size=1, group_label='1')"


def test_count_report_defaults_to_no_oracle_total(samples):
    report = samples[CountReport]
    fields = {f: getattr(report, f) for f in FIELDS[CountReport] if f != "oracle_total"}
    assert CountReport(**fields).oracle_total is None


def test_len_of_a_closure_is_its_element_count():
    # a plain two-slot class, not a tuple: its len is not its field count
    z7 = closure([1], lambda block, g: [(a + g) % 7 for a in block], [0], 7)
    assert type(z7) is Closure
    assert len(z7) == len(z7.elements) == 7
