"""Regenerate the JSON fixture documents under fixtures/.

Every document is serialized from the library's own example objects by the
writers in ``hopfgal.cli``, beside the parsers that read them back, so the
wire format and the in-memory constructors can never drift apart. Output is
deterministic: sorted keys, two-space indent, trailing newline.
"""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from hopfgal import zoo
from hopfgal.bundle import LeftComodule
from hopfgal.cli import bundle_sections, document, extension_sections, hopf_doc, module_doc, morphism_sections
from hopfgal.exact_linear import Mat, QQ
from hopfgal.extension import ExtensionMorphism, identity_cover
from hopfgal.hopf_core import AlgebraData, Group, HopfMap, build_group_algebra, sweedler_h4

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def build_all() -> dict:
    docs = {}

    # the quadratic field extension: galois / hopf / comodule-algebra checks
    docs["qsqrt2.json"] = extension_sections(zoo.q_sqrt2_extension())

    # the four dimensional non-commutative example for the hopf axiom suite
    docs["hopf_sweedler.json"] = {"hopf": hopf_doc(sweedler_h4())}

    # regular extension of the cyclic group algebra: a second galois fixture
    kz4 = build_group_algebra(Group.cyclic(4))
    docs["regular_z4.json"] = extension_sections(zoo.regular_extension(kz4))

    # non-Galois control: trivial coaction with a declared scalar base
    docs["trivial_coaction.json"] = extension_sections(zoo.trivial_coaction_extension())

    # Cartesian morphism fixtures
    docs["cartesian_z4_z2.json"] = morphism_sections(zoo.cyclic_group_change(4, 2))
    docs["sweedler_self.json"] = morphism_sections(zoo.self_galois_morphism(sweedler_h4()))
    docs["commutative_identity.json"] = morphism_sections(
        ExtensionMorphism.identity(zoo.q_sqrt2_extension())
    )

    # commutative self morphism: the braiding collapses to the plain flip
    kz2 = build_group_algebra(Group.cyclic(2))
    docs["commutative_flip.json"] = morphism_sections(zoo.self_galois_morphism(kz2))

    # non-Cartesian control: the canonical map has mismatched dimensions
    one = Mat.identity(QQ, 1)
    source = identity_cover(AlgebraData(QQ, 1, ["1"], one, one))
    target = zoo.trivial_coaction_extension()
    chi = HopfMap(source.hopf, target.hopf, Mat.from_rows(QQ, [[1], [1]]))
    alpha = Mat.from_rows(QQ, [[1], [0]])
    docs["trivial_noncartesian.json"] = morphism_sections(ExtensionMorphism(chi, alpha, source, target))

    # relative Hopf module over the quadratic field extension
    e = zoo.q_sqrt2_extension()
    docs["module_self_qsqrt2.json"] = {
        **extension_sections(e),
        "module": module_doc(zoo.module_self(e.comodule_algebra)),
    }

    # associated line bundle: the sign character over the quadratic field
    sign = LeftComodule(e.hopf, 1, coaction=Mat.from_rows(QQ, [[1], [-1]]))
    docs["bundle_sign_qsqrt2.json"] = bundle_sections(e, sign)

    # regular fiber over the Sweedler self extension
    h = sweedler_h4()
    regular = LeftComodule(h, h.dim, coaction=h.comult, names=h.algebra.basis_names)
    docs["bundle_regular_sweedler.json"] = bundle_sections(zoo.regular_extension(h), regular)

    return {name: document(QQ, sections) for name, sections in docs.items()}


def main():
    FIXTURES.mkdir(exist_ok=True)
    for name, doc in sorted(build_all().items()):
        path = FIXTURES / name
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(FIXTURES.parent)}")


if __name__ == "__main__":
    main()
