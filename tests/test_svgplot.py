import re
from xml.etree import ElementTree

import pytest

from pidlab import ParamSpace, RouthValidator, ground_truth, identify_boundary
from pidlab.svgplot import HEIGHT, ML, MT, WIDTH, PlaneTransform, render_plane


def worked_space():
    return ParamSpace(p_min=1.0, p_max=1.0, p_step=1.0,
                      i_min=0.1, i_max=4.0, i_step=0.1,
                      d_min=0.0, d_max=1.0, d_step=0.5)


def svg_transform(svg):
    """Recover the pixel-to-data mapping from the root data-* attributes."""
    get = lambda name: float(re.search(f'{name}="([^"]+)"', svg).group(1))
    d_lo, d_hi = get("data-d-lo"), get("data-d-hi")
    i_lo, i_hi = get("data-i-lo"), get("data-i-hi")
    ml, mt, pw, ph = (float(v) for v in
                      re.search(r'data-plot="([^"]+)"', svg).group(1).split())

    def invert(x, y):
        d = d_lo + (x - ml) / pw * (d_hi - d_lo)
        i = i_hi - (y - mt) / ph * (i_hi - i_lo)
        return d, i

    return invert


def polyline_points(svg, elem_id):
    m = re.search(f'<polyline id="{elem_id}" points="([^"]+)"', svg)
    if m is None:
        return None
    return [tuple(float(v) for v in pair.split(","))
            for pair in m.group(1).split()]


class TestPlaneTransform:
    def test_round_trip(self):
        tr = PlaneTransform(worked_space())
        for d, i in [(0.0, 0.1), (0.5, 2.0), (1.0, 4.0)]:
            # the inverse map, from the pixel margins and the padded ranges
            assert tr.d_lo + (tr.x(d) - ML) / tr.pw * (tr.d_hi - tr.d_lo) == pytest.approx(d)
            assert tr.i_hi - (tr.y(i) - MT) / tr.ph * (tr.i_hi - tr.i_lo) == pytest.approx(i)

    def test_padding_covers_half_a_cell(self):
        s = worked_space()
        tr = PlaneTransform(s)
        assert tr.d_lo == pytest.approx(-0.25)
        assert tr.d_hi == pytest.approx(1.25)
        assert tr.i_lo == pytest.approx(0.05)
        assert tr.i_hi == pytest.approx(4.05)

    def test_y_axis_points_up(self):
        tr = PlaneTransform(worked_space())
        assert tr.y(4.0) < tr.y(0.1)


class TestRenderPlane:
    def test_document_shape(self):
        svg = render_plane(worked_space(), 1.0)
        assert svg.startswith("<svg ") and svg.endswith("</svg>")
        assert f'width="{WIDTH}"' in svg and f'height="{HEIGHT}"' in svg
        assert "kp = 1" in svg

    def test_custom_title(self):
        svg = render_plane(worked_space(), 1.0, title="sweep 7")
        assert "sweep 7" in svg and "kp = 1" not in svg
        # markup characters are escaped, so the document stays well-formed
        title = "R&D <x> \"q\" 'p'"
        root = ElementTree.fromstring(render_plane(worked_space(), 1.0, title=title))
        assert root.findall(".//{*}text")[-1].text == title

    def test_cells_match_labels(self):
        s = worked_space()
        gt = ground_truth(s, validator=RouthValidator(1, 1))
        svg = render_plane(s, 1.0, grid=gt)
        n_invalid = svg.count('class="cell invalid"')
        n_valid = svg.count('class="cell valid"')
        assert n_invalid == list(gt.labels.values()).count("invalid") == 33
        assert n_valid + n_invalid == s.size()

    def test_boundary_polyline_inverts_to_found_heights(self):
        s = worked_space()
        bl = identify_boundary(s, validator=RouthValidator(1, 1))
        svg = render_plane(s, 1.0, boundary=bl)
        invert = svg_transform(svg)
        pts = polyline_points(svg, "boundary")
        assert len(pts) == 3
        recovered = [invert(x, y) for x, y in pts]
        for (d, i), c in zip(recovered, bl.columns):
            assert d == pytest.approx(c.d, abs=2e-3)
            assert i == pytest.approx(c.i_save, abs=5e-3)

    def test_boundary_omitted_without_boundary_columns(self):
        s = ParamSpace(-2.0, -2.0, 1.0, 0.1, 4.0, 0.1, 0.0, 1.0, 0.5)
        bl = identify_boundary(s, validator=RouthValidator(1, 1))
        svg = render_plane(s, -2.0, boundary=bl)
        assert polyline_points(svg, "boundary") is None

    def test_theory_line_keeps_only_in_range_points(self):
        s = worked_space()
        theory = [(0.0, 2.0), (0.5, 3.0), (1.0, 99.0)]
        svg = render_plane(s, 1.0, theory=theory)
        pts = polyline_points(svg, "theory")
        assert len(pts) == 2
        assert "stroke-dasharray" in svg
        invert = svg_transform(svg)
        d, i = invert(*pts[1])
        assert (d, i) == (pytest.approx(0.5, abs=2e-3), pytest.approx(3.0, abs=5e-3))

    def test_no_theory_line_when_not_given(self):
        assert polyline_points(render_plane(worked_space(), 1.0), "theory") is None

    def test_output_is_deterministic(self):
        s = worked_space()
        gt = ground_truth(s, validator=RouthValidator(1, 1))
        bl = identify_boundary(s, validator=RouthValidator(1, 1))
        a = render_plane(s, 1.0, grid=gt, boundary=bl)
        b = render_plane(s, 1.0, grid=gt, boundary=bl)
        assert a == b

    def test_multiplane_grid_draws_selected_plane_only(self):
        s = ParamSpace(0.5, 1.0, 0.5, 0.1, 2.0, 0.1, 0.0, 1.0, 0.5)
        gt = ground_truth(s, validator=RouthValidator(1, 1))
        svg = render_plane(s, 0.5, grid=gt)
        n_cells = svg.count('class="cell')
        assert n_cells == s.n_i * s.n_d
