"""The model formulas take floats or arrays: a check that both agree."""


def assert_float_alone_equals_array(formula, *arrays):
    """Entry i of `formula` over the arrays equals `formula` of the entries i
    alone, as Python floats, exactly; the lone result is a float."""
    batch = formula(*arrays)
    for i in range(len(arrays[0])):
        alone = formula(*(float(a[i]) for a in arrays))
        assert isinstance(alone, float)
        assert alone == batch[i]
