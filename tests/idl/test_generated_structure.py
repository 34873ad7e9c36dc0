"""The generated module is proportional to its IDL.

An operation's stub and skeleton handler depend only on its declaration
(Sections 4 and 9.1), so each is generated once, by the interface that
declares it: ``_stub_<declaring iface>_<op>`` and ``_skel_…``.  Every
interface that inherits the operation points at those functions, and
each interface's skeleton class wraps one module-wide dispatch body.
Fused stubs follow the same rule, once per module.  Generated code holds
only the fast path: every primitive item that does not pack or read
inline goes back to ``put_*``/``get_*`` through a shared helper.
"""

from __future__ import annotations

import ast
import importlib
import re

import pytest

from repro.core import narrow
from repro.core.errors import RemoteApplicationError
from repro.idl.codegen import generate_fused_source, generate_type_query_source
from repro.idl.compiler import compile_idl
from repro.idl.specialize import specialize
from repro.marshal.codec import FRAGMENTS
from repro.runtime.env import Environment
from repro.services.cachemgr import CACHE_MANAGER_IDL
from repro.services.fs import FS_IDL
from repro.services.kv import KV_IDL
from repro.services.naming import NAMING_IDL
from repro.services.obsd import OBSD_IDL
from repro.services.stable import DURABLE_KV_IDL
from repro.subcontracts.singleton import SingletonServer

#: the module (``repro.idl`` exports the function under the same name)
specialize_module = importlib.import_module("repro.idl.specialize")

DIAMOND_IDL = """
interface a { int32 x(int32 n); }
interface b : a { int32 y(); }
interface c : a { int32 z(); }
interface d : b, c { int32 w(); }
"""

#: ``e``'s bases have no Python MRO (``b`` already derives from ``a``)
NO_MRO_IDL = """
interface a { int32 x(int32 n); }
interface b : a { int32 y(); }
interface e : a, b { int32 v(); }
"""

IDLS = {
    "fs": FS_IDL,
    "kv": KV_IDL,
    "naming": NAMING_IDL,
    "stable": DURABLE_KV_IDL,
    "cachemgr": CACHE_MANAGER_IDL,
    "obsd": OBSD_IDL,
    "diamond": DIAMOND_IDL,
    "no_mro": NO_MRO_IDL,
}


def functions(source, prefix):
    """The names of the module-level functions starting with ``prefix``
    (a name defined twice is listed twice)."""
    tree = ast.parse(source)
    return sorted(
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith(prefix)
    )


@pytest.mark.parametrize("name", IDLS)
def test_one_stub_and_one_handler_per_declared_operation(name):
    module = compile_idl(IDLS[name], f"tests.structure.{name}")
    declared = sorted(
        f"{op.introduced_by}_{op.name}"
        for binding in module.bindings.values()
        for op in binding.operations.values()
        if op.introduced_by == binding.name
    )
    assert functions(module.source, "_stub_") == [f"_stub_{op}" for op in declared]
    assert functions(module.source, "_skel_") == [f"_skel_{op}" for op in declared]
    assert functions(module.source, "_dispatch_for") == ["_dispatch_for"]


#: a call that puts or gets one primitive item the fragments pack inline
INLINE_CALL = re.compile(r"\.(?:put|get)_(?:%s)\(" % "|".join(FRAGMENTS))


@pytest.mark.parametrize("name", IDLS)
def test_no_generated_code_puts_or_gets_an_inline_item_itself(name):
    module = compile_idl(IDLS[name], f"tests.structure.cold.{name}")
    sources = [module.source, generate_type_query_source()]
    sources += [generate_fused_source(binding) for binding in module.bindings.values()]
    for source in sources:
        assert INLINE_CALL.findall(source) == []


def test_the_fs_module_stays_small():
    source = compile_idl(FS_IDL, "tests.structure.size").source
    assert len(source.splitlines()) <= 1_400
    assert len(re.findall(r"\.(?:put|get)_\w+\(", source)) <= 16


@pytest.mark.parametrize("name", ["fs", "diamond", "no_mro"])
def test_an_inherited_operation_is_its_declarers_stub(name):
    module = compile_idl(IDLS[name], f"tests.structure.inherited.{name}")
    inherited = [
        (binding, op)
        for binding in module.bindings.values()
        for op in binding.operations.values()
        if op.introduced_by != binding.name
    ]
    assert inherited
    for binding, op in inherited:
        declarer = module.binding(op.introduced_by)
        stub = declarer.remote_method_table()[op.name]
        assert binding.remote_method_table()[op.name] is stub
        assert vars(binding.stub_class)[op.name] is vars(declarer.stub_class)[op.name]


class DiamondImpl:
    def x(self, n):
        return n + 1

    def y(self):
        return 2

    def z(self):
        return 3

    def w(self):
        return 4


@pytest.fixture(params=["general", "fused"])
def diamond(request):
    """``(variant, client module, a d object)``: its calls made by the
    general or fused stubs; the client's ``d`` declares ``extra``, the
    server's does not."""
    env = Environment()
    server = env.create_domain("m0", "server")
    client = env.create_domain("m0", "client")
    served = compile_idl(DIAMOND_IDL, f"tests.structure.diamond.server.{request.param}")
    exported = SingletonServer(server).export(DiamondImpl(), served.binding("d"))
    env.bind(server, "/d", exported)
    client_idl = DIAMOND_IDL.replace("int32 w();", "int32 w(); void extra();")
    module = compile_idl(client_idl, f"tests.structure.diamond.client.{request.param}")
    if request.param == "fused":
        specialize(module, "d", "singleton")
    obj = narrow(env.resolve(client, "/d"), module.binding("d"))
    return request.param, module, obj


def test_an_inherited_operation_works_on_a_derived_object(diamond):
    variant, module, obj = diamond
    expected = module.binding("d").method_table_for("singleton")
    assert obj._method_table is expected
    assert (variant == "fused") == (expected is not module.binding("d").remote_method_table())
    assert (obj.x(41), obj.y(), obj.z(), obj.w()) == (42, 2, 3, 4)


def test_an_unknown_operation_names_the_derived_interface(diamond):
    _, _, obj = diamond
    with pytest.raises(RemoteApplicationError) as raised:
        obj.extra()
    assert raised.value.remote_type == "LookupError"
    assert raised.value.message == "interface d has no operation 'extra'"


def test_specialize_compiles_each_declared_fused_stub_once(monkeypatch):
    """Fusing ``d`` for singleton, then ``b``, then ``d`` for simplex, then
    ``a``: each op's fused stub is compiled once, by its declarer, and
    every table holds that one function."""
    compiled = []
    load = specialize_module.load_generated

    def counting(source, *rest):
        compiled.extend(functions(source, "_spec_"))
        return load(source, *rest)

    monkeypatch.setattr(specialize_module, "load_generated", counting)
    module = compile_idl(DIAMOND_IDL, "tests.structure.diamond.fused_once")
    tables = [
        specialize(module, name, subcontract)
        for name, subcontract in [("d", "singleton"), ("b", "singleton"), ("d", "simplex"), ("a", "simplex")]
    ]
    assert sorted(compiled) == ["_spec_a_x", "_spec_b_y", "_spec_c_z", "_spec_d_w"]
    for table in tables:
        for op, stub in table.items():
            assert stub is tables[0][op]
