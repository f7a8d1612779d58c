"""The dense symplectic inversion, kept as the oracle of the sparse one in
`bvcov.aksz` and `bvcov.varcalc`: the two-form from 2n^2 partial
derivatives, Gaussian elimination that updates all 2n columns of every row,
the signed-identity post-check as a full triple loop and the symmetry check
over all n^2 pairs.  Each function returns what the sparse code must return
entry by entry; a failed post-check returns False instead of raising."""

from bvcov.coefficients import quotient
from bvcov.expression import Expression, inverse_of, is_zero, jet_partial, partial_derivative
from bvcov.symbols import antifield_name


def dense_two_form(chart) -> list[list[Expression]]:
    """omega_ab = d_a nu_b - (-1)^{pa(a)pa(b)} d_b nu_a over all n^2 pairs."""
    n = len(chart.fields)
    omega = [[Expression.zero(chart.theory)] * n for _ in range(n)]
    for a, fa in enumerate(chart.fields):
        for b, fb in enumerate(chart.fields):
            term = partial_derivative(chart.nu[fb.name], fa)
            swap = partial_derivative(chart.nu[fa.name], fb)
            sign = -1 if (fa.parity * fb.parity) % 2 else 1
            omega[a][b] = term - swap * sign
    return omega


def dense_right_inverse(theory, mat):
    """M X = I by Gauss-Jordan elimination on dense rows of [M | I], with the
    pivot rule of the sparse code: scan from the diagonal down, even pivots
    only, a constant one first.  None when a column has no pivot."""
    n = len(mat)
    aug = [[mat[i][j] for j in range(n)] +
           [Expression.const(theory, 1 if i == j else 0) for j in range(n)]
           for i in range(n)]
    for col in range(n):
        piv = None
        best = None
        for r in range(col, n):
            e = aug[r][col]
            if e.is_structural_zero() or e.sign_degree() != 0:
                continue
            score = 0 if (len(e.terms) == 1 and not e.terms[0].mono and not e.terms[0].atoms) else 1
            if best is None or score < best:
                best, piv = score, r
                if score == 0:
                    break
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        p = aug[col][col]
        if len(p.terms) == 1 and not p.terms[0].mono and not p.terms[0].atoms:
            pinv = Expression.const(theory, quotient(1, p.terms[0].coef))
        else:
            pinv = inverse_of(p)
        aug[col] = [pinv * e for e in aug[col]]
        for r in range(n):
            if r == col:
                continue
            factor = aug[r][col]
            if factor.is_structural_zero():
                continue
            aug[r] = [aug[r][j] - factor * aug[col][j] for j in range(2 * n)]
    return [[aug[i][n + j] for j in range(n)] for i in range(n)]


def dense_signed_identity(theory, left, right, signs=None) -> bool:
    """signs[a] * sum_b left[a][b] right[b][c] = delta_ac, every product
    formed."""
    n = len(left)
    for a in range(n):
        sa = 1 if signs is None else signs[a]
        for c in range(n):
            acc = Expression.sum(theory, (left[a][b] * right[b][c] for b in range(n)))
            if not is_zero(acc * sa - Expression.const(theory, 1 if a == c else 0)):
                return False
    return True


def dense_poisson_tensor(chart):
    """pi^{ab} = (-1)^{pa(a)} (omega^-1)^{ab} with both post-checks; None if
    omega is degenerate, False if a post-check fails."""
    omega = dense_two_form(chart)
    n = len(chart.fields)
    inv = dense_right_inverse(chart.theory, omega)
    if inv is None:
        return None
    signs = [-1 if f.parity else 1 for f in chart.fields]
    pi = [[inv[a][b] * signs[a] for b in range(n)] for a in range(n)]
    if not dense_signed_identity(chart.theory, pi, omega, signs):
        return False
    for a, fa in enumerate(chart.fields):
        for b, fb in enumerate(chart.fields):
            sign = -1 if (fa.parity * fb.parity) % 2 else 1
            if not is_zero(pi[a][b] + pi[b][a] * sign):
                return False
    return pi


def dense_etale_images(source, target, images) -> dict:
    """The generator images of the etale map y^b = images[b]: the Jacobian
    from n^2 jet partials, its dense inverse and the dense check; False if
    the check fails."""
    tgt_fields = [f for f, _ in target.field_pairs()]
    src_fields = [f for f, _ in source.field_pairs()]
    jac = [[jet_partial(images[fb.name], fa) for fa in src_fields] for fb in tgt_fields]
    inv = dense_right_inverse(source, jac)
    if inv is None or not dense_signed_identity(source, jac, inv):
        return False
    out = {target.symbol(f.name): images[f.name] for f in tgt_fields}
    for j, f in enumerate(tgt_fields):
        out[target.symbol(antifield_name(f.name))] = Expression.sum(source, (
            inv[a][j] * Expression.of(source, antifield_name(s.name))
            for a, s in enumerate(src_fields)))
    return out


def keys(mat):
    """A matrix entry by entry as canonical keys (terms with coefficients)."""
    return mat if mat is None or mat is False else [[e.key() for e in row] for row in mat]
